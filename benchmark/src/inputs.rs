//! Seeded inputs: everything the program under test receives is generated
//! here from `--seed`, and every response is checked against what was
//! generated.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use whisper_soap::Envelope;
use whisper_xml::Element;

/// The ids `StudentRegistry::with_sample_data` knows; a request for any
/// other id would be answered with a fault.
const STUDENT_IDS: [&str; 10] = [
    "u1000", "u1001", "u1002", "u1003", "u1004", "u1005", "u1006", "u1007", "u1008", "u1009",
];

/// Distinct large payloads per run. The working set (32 × 16 KiB) is far
/// above anything the program caches per request, so no payload is "warm".
const LARGE_TEMPLATES: usize = 32;

/// Length of the seeded pick table; request `k` uses entry `k % len`.
const PICKS: usize = 4096;

/// FNV-1a over bytes: the body check of the echo workload.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Which request the workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestShape {
    /// The paper's `StudentInformation` lookup, ≈250 bytes on the wire.
    StudentInfo,
    /// `StudentTranscript` carrying a seeded text attachment of this many
    /// bytes, echoed back by the b-peer.
    Transcript {
        /// Attachment length in bytes.
        attachment: usize,
    },
}

/// What a good response to one template must contain.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expect {
    /// `<StudentInfo>` carrying this id.
    StudentInfo { id: &'static str },
    /// `<Echo>` of the request: same id, attachment of this length and hash.
    Echo {
        id: &'static str,
        len: usize,
        hash: u64,
    },
}

/// One ready-to-send request envelope and its expected answer.
#[derive(Debug, Clone)]
pub struct Template {
    /// The serialized SOAP request.
    pub envelope: String,
    expect: Expect,
}

/// How a response compared with what was asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Parsed, not a fault, body matches the request.
    Good,
    /// A `<soap:Fault>`.
    Fault,
    /// Unparseable, or the body of some other request.
    Wrong,
}

impl Template {
    /// Parses `response` and checks it answers this template.
    pub fn check(&self, response: &str) -> Verdict {
        let Ok(env) = Envelope::parse(response) else {
            return Verdict::Wrong;
        };
        if env.is_fault() {
            return Verdict::Fault;
        }
        let Some(body) = env.body_payload() else {
            return Verdict::Wrong;
        };
        let id_of = |e: &Element| e.descendant("StudentID").map(|s| s.text());
        let ok = match &self.expect {
            Expect::StudentInfo { id } => {
                body.name == "StudentInfo" && id_of(body).as_deref() == Some(id)
            }
            Expect::Echo { id, len, hash } => {
                body.name == "Echo"
                    && id_of(body).as_deref() == Some(id)
                    && body.descendant("Attachment").is_some_and(|a| {
                        let text = a.text();
                        text.len() == *len && fnv1a(text.as_bytes()) == *hash
                    })
            }
        };
        if ok {
            Verdict::Good
        } else {
            Verdict::Wrong
        }
    }
}

/// Everything one run sends, as a function of the seed alone.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The seed the inputs were drawn from.
    pub seed: u64,
    /// First request id; request `k` carries `first_request_id + k`.
    pub first_request_id: u64,
    /// The distinct request envelopes of this run.
    pub templates: Vec<Template>,
    /// Which template request `k` sends: `picks[k % picks.len()]`.
    picks: Vec<u16>,
    /// Per failover round: how long after the round starts the coordinator
    /// is killed, in microseconds (spreads kills over the heartbeat phase).
    pub kill_offsets_us: Vec<u64>,
}

impl Inputs {
    /// Draws a run's inputs. `kills` is how many failover rounds may need
    /// an offset (zero for the steady workloads).
    pub fn generate(seed: u64, shape: RequestShape, kills: usize) -> Inputs {
        let mut rng = SmallRng::seed_from_u64(seed);
        let first_request_id = rng.gen_range(1..=1u64 << 40);
        let templates = match shape {
            RequestShape::StudentInfo => STUDENT_IDS
                .iter()
                .map(|id| {
                    let mut payload = Element::new("StudentInformation");
                    payload.push_child(Element::with_text("StudentID", *id));
                    Template {
                        envelope: Envelope::request(payload).to_xml_string(),
                        expect: Expect::StudentInfo { id },
                    }
                })
                .collect(),
            RequestShape::Transcript { attachment } => (0..LARGE_TEMPLATES)
                .map(|_| {
                    let id = STUDENT_IDS[rng.gen_range(0..STUDENT_IDS.len())];
                    let text = seeded_text(&mut rng, attachment);
                    let hash = fnv1a(text.as_bytes());
                    let mut payload = Element::new("StudentTranscript");
                    payload.push_child(Element::with_text("StudentID", id));
                    payload.push_child(Element::with_text("Attachment", text));
                    Template {
                        envelope: Envelope::request(payload).to_xml_string(),
                        expect: Expect::Echo {
                            id,
                            len: attachment,
                            hash,
                        },
                    }
                })
                .collect::<Vec<_>>(),
        };
        let picks = (0..PICKS)
            .map(|_| rng.gen_range(0..templates.len()) as u16)
            .collect();
        let kill_offsets_us = (0..kills).map(|_| rng.gen_range(0..200_000u64)).collect();
        Inputs {
            seed,
            first_request_id,
            templates,
            picks,
            kill_offsets_us,
        }
    }

    /// The template request number `k` (0-based) sends.
    pub fn template_of(&self, k: u64) -> usize {
        usize::from(self.picks[(k % self.picks.len() as u64) as usize])
    }

    /// A digest of every generated byte, for the determinism self-test and
    /// the result file.
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a(&self.first_request_id.to_le_bytes());
        for t in &self.templates {
            h ^= fnv1a(t.envelope.as_bytes()).rotate_left(17);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for p in &self.picks {
            h = (h ^ u64::from(*p)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for k in &self.kill_offsets_us {
            h = (h ^ k).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// `len` bytes of base64-alphabet text (what a binary attachment looks
/// like inside a SOAP body; no character needs XML escaping).
fn seeded_text(rng: &mut SmallRng, len: usize) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(len);
    while out.len() < len {
        let mut word = rng.next_u64();
        for _ in 0..10 {
            if out.len() == len {
                break;
            }
            out.push(char::from(ALPHABET[(word & 63) as usize]));
            word >>= 6;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper::{EchoBackend, ServiceBackend, StudentRegistry};

    const LARGE: RequestShape = RequestShape::Transcript { attachment: 16384 };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for shape in [RequestShape::StudentInfo, LARGE] {
            let a = Inputs::generate(7, shape, 8);
            let b = Inputs::generate(7, shape, 8);
            let c = Inputs::generate(8, shape, 8);
            assert_eq!(a.digest(), b.digest());
            assert_eq!(a.first_request_id, b.first_request_id);
            assert_eq!(a.kill_offsets_us, b.kill_offsets_us);
            assert_ne!(a.digest(), c.digest());
        }
    }

    #[test]
    fn small_request_is_about_the_papers_250_bytes() {
        let inputs = Inputs::generate(1, RequestShape::StudentInfo, 0);
        let len = inputs.templates[0].envelope.len();
        assert!((150..=350).contains(&len), "{len}");
    }

    /// Runs a template through the real backend and wraps the answer the
    /// way a b-peer does.
    fn answer(backend: &mut dyn ServiceBackend, t: &Template) -> String {
        let req = Envelope::parse(&t.envelope).expect("templates parse");
        let payload = req.body_payload().expect("templates carry a payload");
        let out = backend
            .handle(&payload.name, payload)
            .expect("backend answers");
        Envelope::request(out).to_xml_string()
    }

    #[test]
    fn good_answers_pass_and_swapped_answers_fail() {
        let small = Inputs::generate(3, RequestShape::StudentInfo, 0);
        let mut db = StudentRegistry::operational_db().with_sample_data();
        let a0 = answer(&mut db, &small.templates[0]);
        assert_eq!(small.templates[0].check(&a0), Verdict::Good);
        assert_eq!(small.templates[1].check(&a0), Verdict::Wrong);

        let large = Inputs::generate(3, LARGE, 0);
        let e0 = answer(&mut EchoBackend, &large.templates[0]);
        assert!(e0.len() > 16384);
        assert_eq!(large.templates[0].check(&e0), Verdict::Good);
        assert_eq!(large.templates[1].check(&e0), Verdict::Wrong);
        assert_eq!(large.templates[0].check("<not-soap/>"), Verdict::Wrong);
    }

    #[test]
    fn faults_are_told_apart_from_wrong_bodies() {
        let small = Inputs::generate(3, RequestShape::StudentInfo, 0);
        let fault = Envelope::fault(whisper_soap::Fault::new(
            whisper_soap::FaultCode::Receiver,
            "no live b-peer",
        ))
        .to_xml_string();
        assert_eq!(small.templates[0].check(&fault), Verdict::Fault);
    }
}
