//! A minimal keep-alive HTTP/1.1 client over `TcpStream`, enough to
//! drive `nucdb-serve` on loopback.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use nucdb::Strand;
use nucdb_obs::json::Value;

use crate::gate::Answer;

pub struct Client {
    conn: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(Client {
            conn,
            buf: Vec::with_capacity(16 << 10),
        })
    }

    /// `POST /search` with a FASTA body; returns status and body.
    pub fn post_search(&mut self, fasta: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "POST /search HTTP/1.1\r\nHost: e2e\r\nContent-Type: text/plain\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{fasta}",
            fasta.len()
        );
        self.conn.write_all(request.as_bytes())?;
        self.read_response()
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: e2e\r\nConnection: keep-alive\r\n\r\n");
        self.conn.write_all(request.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.conn.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed before the response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let length: usize = head
            .lines()
            .filter_map(|line| line.split_once(':'))
            .find(|(key, _)| key.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, value)| value.trim().parse().ok())
            .ok_or_else(|| bad("no Content-Length"))?;
        while self.buf.len() < head_end + length {
            let n = self.conn.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + length]).into_owned();
        Ok((status, body))
    }
}

pub fn fasta_body(id: usize, seq: &nucdb_seq::DnaSeq) -> String {
    format!(
        ">q{id}\n{}\n",
        String::from_utf8(seq.to_ascii_vec()).expect("ASCII bases")
    )
}

/// The answer list of a one-query `/search` response, in the gate's
/// terms; `None` if the body is not the document the server promises.
pub fn answer_of_response(body: &str) -> Option<Answer> {
    let doc = nucdb_obs::json::parse(body).ok()?;
    let Value::Arr(results) = doc.get("results")? else {
        return None;
    };
    let [only] = results.as_slice() else {
        return None;
    };
    let Value::Arr(answers) = only.get("answers")? else {
        return None;
    };
    answers
        .iter()
        .map(|a| {
            let strand = match a.get("strand")?.as_str()? {
                "+" => Strand::Forward,
                "-" => Strand::Reverse,
                _ => return None,
            };
            Some((
                a.get("record")?.as_f64()? as u32,
                a.get("score")?.as_f64()? as i32,
                strand,
            ))
        })
        .collect()
}

/// Value of an unlabelled or exactly-labelled series in a Prometheus
/// text exposition, e.g. `nucdb_http_requests_total{code="200"}`.
pub fn prometheus_value(exposition: &str, series: &str) -> Option<f64> {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .find(|(name, _)| *name == series)
        .and_then(|(_, v)| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_answers_parse_into_gate_terms() {
        let body = r#"{"request_id":"r1","results":[{"query":"q0","answers":[
            {"rank":1,"id":"fam00m1","record":17,"score":412,"coarse_hits":90,"coarse_score":88.0,"strand":"-"},
            {"rank":2,"id":"bg000003","record":3,"score":40,"coarse_hits":4,"coarse_score":4.0,"strand":"+"}
        ],"stats":{"candidates":30}}]}"#;
        assert_eq!(
            answer_of_response(body),
            Some(vec![(17, 412, Strand::Reverse), (3, 40, Strand::Forward)])
        );
        assert_eq!(answer_of_response("{\"results\":[]}"), None);
        assert_eq!(answer_of_response("not json"), None);
    }

    #[test]
    fn prometheus_series_are_matched_exactly() {
        let text = "# HELP x y\nnucdb_http_requests_total{code=\"200\"} 42\n\
                    nucdb_http_requests_total{code=\"503\"} 0\nnucdb_http_shed_total 3\n";
        assert_eq!(
            prometheus_value(text, "nucdb_http_requests_total{code=\"200\"}"),
            Some(42.0)
        );
        assert_eq!(prometheus_value(text, "nucdb_http_shed_total"), Some(3.0));
        assert_eq!(prometheus_value(text, "nucdb_http_requests_total"), None);
    }
}
