//! Fixture wire protocol: four request tags, one response tag. The
//! `Drop` request is deliberately absent from `Session::handle` in
//! session.rs (positive); the other three are dispatched (negative).

pub enum Request {
    Ping,
    Get { key: u64 },
    Stats,
    Drop,
}

impl Request {
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => {
                out.push(1);
            }
            Request::Get { key } => {
                out.push(2);
                out.extend_from_slice(&key.to_le_bytes());
            }
            Request::Stats => {
                out.push(3);
            }
            Request::Drop => {
                out.push(4);
            }
        }
    }

    pub fn decode_body(tag: u8) -> Option<Request> {
        match tag {
            1 => Some(Request::Ping),
            2 => Some(Request::Get { key: 0 }),
            3 => Some(Request::Stats),
            4 => Some(Request::Drop),
            _ => None,
        }
    }
}

pub enum Response {
    Ok,
    Value { val: u64 },
}

impl Response {
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => {
                out.push(1);
            }
            Response::Value { val } => {
                out.push(2);
                out.extend_from_slice(&val.to_le_bytes());
            }
        }
    }

    pub fn decode(tag: u8) -> Option<Response> {
        match tag {
            1 => Some(Response::Ok),
            2 => Some(Response::Value { val: 0 }),
            _ => None,
        }
    }
}
