//! Fixture dispatch: handles Ping, Get, and Stats — but not
//! `Request::Drop`, which pass 4 must report as undispatched.

use crate::proto::{Request, Response};

pub struct Session;

impl Session {
    pub fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Ok,
            Request::Get { key } => Response::Value { val: key },
            Request::Stats => Response::Value { val: 1 },
        }
    }
}
