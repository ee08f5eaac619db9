//! Correctness checks on everything the server sends back. Any
//! violation fails the run.

use tbs_server::proto::EpochOutcome;
use temporal_sampling::api::EngineHealth;

/// Violations beyond this many are counted, not kept.
const KEEP: usize = 16;

/// Checks one connection's replies in arrival order.
#[derive(Debug, Default)]
pub struct Checker {
    violations: Vec<String>,
    dropped: usize,
    last_ack_epoch: u64,
    last_seen_epoch: u64,
    last_seen_batches: u64,
}

impl Checker {
    /// A checker with nothing seen yet.
    pub fn new() -> Self {
        Self::default()
    }

    fn fail(&mut self, msg: String) {
        if self.violations.len() < KEEP {
            self.violations.push(msg);
        } else {
            self.dropped += 1;
        }
    }

    /// `IngestAck` for the `ordinal`-th batch sent on this service.
    pub fn ingest_ack(&mut self, ordinal: u64, batches: u64, published_epoch: u64) {
        if batches != ordinal {
            self.fail(format!(
                "ingest #{ordinal}: ack says {batches} batches observed"
            ));
        }
        if published_epoch <= self.last_ack_epoch {
            self.fail(format!(
                "ingest #{ordinal}: published epoch {published_epoch} after {}",
                self.last_ack_epoch
            ));
        }
        self.last_ack_epoch = published_epoch;
    }

    fn stamp(&mut self, what: &str, epoch: u64, batches: u64) {
        if epoch < self.last_seen_epoch || batches < self.last_seen_batches {
            self.fail(format!(
                "{what}: epoch {epoch} / {batches} batches after epoch {} / {} batches",
                self.last_seen_epoch, self.last_seen_batches
            ));
        }
        self.last_seen_epoch = self.last_seen_epoch.max(epoch);
        self.last_seen_batches = self.last_seen_batches.max(batches);
    }

    /// `GET_SAMPLE` reply.
    pub fn sample(&mut self, epoch: u64, batches: u64, len: usize, capacity: usize) {
        if len > capacity {
            self.fail(format!(
                "sample of epoch {epoch}: {len} items exceed capacity {capacity}"
            ));
        }
        self.stamp("sample", epoch, batches);
    }

    /// `SUBSCRIBE_EPOCH` reply to a request for `wanted`.
    pub fn epoch_reply(&mut self, wanted: u64, outcome: EpochOutcome, epoch: u64, batches: u64) {
        if outcome != EpochOutcome::Published {
            self.fail(format!("subscription to epoch {wanted}: {outcome:?}"));
            return;
        }
        if epoch < wanted {
            self.fail(format!(
                "subscription to epoch {wanted} answered with epoch {epoch}"
            ));
        }
        self.stamp("subscription", epoch, batches);
    }

    /// `PREDICT` reply.
    pub fn prediction(&mut self, x: f64, y: f64) {
        if !y.is_finite() {
            self.fail(format!("predict({x}) = {y}"));
        }
    }

    /// The served slope after the stream settled in a mode whose x₁
    /// coefficient is `coefficient`.
    pub fn served_slope(&mut self, slope: f64, coefficient: f64) {
        if !(slope.is_finite() && slope.signum() == coefficient.signum()) {
            self.fail(format!(
                "served slope {slope} does not follow the current mode's coefficient {coefficient}"
            ));
        }
    }

    /// Final engine health.
    pub fn health(&mut self, health: &EngineHealth) {
        if *health != EngineHealth::Healthy {
            self.fail(format!("engine health at the end: {health:?}"));
        }
    }

    /// A reply observed at `recv_ns` reflects `batches`, but batch
    /// `batches` was sent only at `sent_ns`.
    pub fn causality(&mut self, batches: u64, sent_ns: u64, recv_ns: u64) {
        if recv_ns < sent_ns {
            self.fail(format!(
                "a reply reflecting batch {batches} arrived before the batch was sent"
            ));
        }
    }

    /// Any other violation.
    pub fn other(&mut self, msg: String) {
        self.fail(msg);
    }

    /// Fold another connection's findings into this one.
    pub fn absorb(&mut self, other: Checker) {
        self.dropped += other.dropped;
        for v in other.violations {
            self.fail(v);
        }
    }

    /// Total violations.
    pub fn count(&self) -> usize {
        self.violations.len() + self.dropped
    }

    /// Kept violation messages.
    pub fn messages(&self) -> &[String] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_acks_pass() {
        let mut c = Checker::new();
        for b in 1..=5 {
            c.ingest_ack(b, b, 2 * b);
        }
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn forged_out_of_order_ack_is_rejected() {
        let mut c = Checker::new();
        c.ingest_ack(1, 1, 2);
        c.ingest_ack(2, 3, 4);
        assert_eq!(c.count(), 1);
        c.ingest_ack(3, 3, 4);
        assert_eq!(c.count(), 2, "a repeated epoch is a violation too");
    }

    #[test]
    fn stamps_must_not_go_backwards() {
        let mut c = Checker::new();
        c.sample(5, 3, 10, 1000);
        c.epoch_reply(6, EpochOutcome::Published, 6, 3);
        assert_eq!(c.count(), 0);
        c.sample(4, 3, 10, 1000);
        assert_eq!(c.count(), 1);
        c.epoch_reply(9, EpochOutcome::TimedOut, 6, 0);
        c.sample(7, 4, 1001, 1000);
        assert_eq!(c.count(), 3);
    }

    #[test]
    fn slope_and_predictions_are_checked() {
        let mut c = Checker::new();
        c.served_slope(4.0, 4.2);
        c.served_slope(-3.5, -3.6);
        c.prediction(0.5, 1.0);
        assert_eq!(c.count(), 0);
        c.served_slope(4.0, -3.6);
        c.prediction(0.5, f64::NAN);
        assert_eq!(c.count(), 2);
    }
}
