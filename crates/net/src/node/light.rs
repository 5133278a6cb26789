//! The light-client role: header-first sync and batched-proof verification.
//!
//! A light node never executes block bodies. It maintains a
//! [`HeaderChain`] (same `(work, digest)` fork choice as the full nodes'
//! `ForkTree`, headers only), syncs it with `GetHeaders`/`Headers`
//! round-trips against full-node servers, and verifies the transactions it
//! cares about with batched Merkle inclusion proofs checked against the
//! `merkle_root` committed in an already-PoW-checked header — so a lying
//! server cannot forge inclusion, only withhold (defeated by rotating to
//! the next server) or serve garbage (detected, penalised, re-requested).
//!
//! Everything is driven off the slice tick the scheduler already delivers
//! to every node, and server selection is a deterministic rotation — no
//! randomness, so light traffic replays byte-identically.

use hashcore_baselines::PowFunction;
use hashcore_chain::{
    BlockHeader, DifficultyRule, ForkError, HeaderChain, HeaderOutcome, InvalidReason, GENESIS_HASH,
};
use hashcore_crypto::{BatchProof, Digest256, MerkleTree};
use std::collections::BTreeSet;

use super::{Message, Node, Outgoing, Role, MAX_HEADERS_PER_MSG};

/// Configuration for a node taking the [`Role::Light`] role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LightConfig {
    /// Node ids of the full nodes this client requests headers and proofs
    /// from (rotated deterministically).
    pub servers: Vec<usize>,
    /// Simulated milliseconds before an unanswered header or proof request
    /// is re-issued to the next server.
    pub request_timeout_ms: u64,
    /// Transaction leaf indices this client proves for every new tip;
    /// empty disables proof requests (header-only client).
    pub proof_indices: Vec<u32>,
}

/// A proof request in flight: which block, when, and who was asked.
#[derive(Debug, Clone)]
pub(crate) struct ProofRequest {
    pub(crate) block: Digest256,
    pub(crate) sent_ms: u64,
    pub(crate) server: usize,
}

/// Per-node light-client state, present when the node's role is
/// [`Role::Light`].
#[derive(Debug)]
pub(crate) struct LightState {
    /// Header-only fork choice — the light client's entire chain view.
    pub(crate) headers: HeaderChain,
    /// Full-node server ids, rotated deterministically.
    pub(crate) servers: Vec<usize>,
    /// Leaf indices proven for every new tip.
    pub(crate) proof_indices: Vec<u32>,
    /// Request re-issue timeout in simulated milliseconds.
    pub(crate) request_timeout_ms: u64,
    /// Rotation cursor into `servers`.
    pub(crate) next_server: usize,
    /// An unanswered `GetHeaders`: `(sent_ms, server)`.
    pub(crate) headers_inflight: Option<(u64, usize)>,
    /// An unanswered `GetProof`.
    pub(crate) proof_inflight: Option<ProofRequest>,
    /// The last tip whose proof batch verified.
    pub(crate) proved_tip: Digest256,
    /// Servers that served an invalid proof — never asked again (the
    /// client-local complement of the shared penalty/ban machinery).
    pub(crate) bad_servers: BTreeSet<usize>,
}

impl LightState {
    pub(crate) fn new(config: LightConfig, id: usize, rule: Option<DifficultyRule>) -> Self {
        let headers = match rule {
            Some(rule) => HeaderChain::with_rule(rule),
            None => HeaderChain::new(),
        };
        let next_server = if config.servers.is_empty() {
            0
        } else {
            id % config.servers.len()
        };
        Self {
            headers,
            servers: config.servers,
            proof_indices: config.proof_indices,
            request_timeout_ms: config.request_timeout_ms,
            next_server,
            headers_inflight: None,
            proof_inflight: None,
            proved_tip: GENESIS_HASH,
            bad_servers: BTreeSet::new(),
        }
    }

    /// The next server in the rotation, skipping ones that served invalid
    /// proofs (unless every server did — then the client has no better
    /// option than round-robin over all of them). `None` with no servers.
    pub(crate) fn pick_server(&mut self) -> Option<usize> {
        if self.servers.is_empty() {
            return None;
        }
        for _ in 0..self.servers.len() {
            let server = self.servers[self.next_server % self.servers.len()];
            self.next_server = (self.next_server + 1) % self.servers.len();
            if !self.bad_servers.contains(&server) {
                return Some(server);
            }
        }
        let server = self.servers[self.next_server % self.servers.len()];
        self.next_server = (self.next_server + 1) % self.servers.len();
        Some(server)
    }
}

impl<P: PowFunction + Sync + std::fmt::Debug> Node<P>
where
    P::Scratch: std::fmt::Debug,
{
    /// The light client's slice tick: bootstrap the header sync, re-issue
    /// timed-out header or proof requests to the next server, and keep the
    /// tip's transactions proven. Replaces mining for [`Role::Light`]
    /// nodes.
    pub(crate) fn light_slice(&mut self, now_ms: u64) -> Vec<Outgoing> {
        let Some(light) = self.light.as_mut() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let timeout = light.request_timeout_ms;
        // Header sync: bootstrap once, then re-issue on timeout.
        let headers_stalled = match light.headers_inflight {
            None => light.headers.is_empty(),
            Some((sent_ms, _)) => now_ms.saturating_sub(sent_ms) >= timeout,
        };
        if headers_stalled {
            if light.headers_inflight.take().is_some() {
                self.stats.stalls_detected += 1;
                self.stats.requests_retried += 1;
            }
            if let Some(server) = light.pick_server() {
                let locator = light.headers.locator();
                light.headers_inflight = Some((now_ms, server));
                out.push(Outgoing::To(server, Message::GetHeaders { locator }));
            }
        }
        // Proof of the current tip: request once per new tip, re-issue on
        // timeout.
        let light = self.light.as_mut().expect("checked above");
        if !light.proof_indices.is_empty() {
            let tip = light.headers.tip();
            match &light.proof_inflight {
                Some(req) if now_ms.saturating_sub(req.sent_ms) >= timeout => {
                    light.proof_inflight = None;
                    self.stats.proof_retries += 1;
                    out.extend(self.request_proof(now_ms, tip));
                }
                None if tip != GENESIS_HASH && light.proved_tip != tip => {
                    out.extend(self.request_proof(now_ms, tip));
                }
                _ => {}
            }
        }
        out
    }

    /// Issues a `GetProof` for `block` to the next good server.
    fn request_proof(&mut self, now_ms: u64, block: Digest256) -> Vec<Outgoing> {
        let Some(light) = self.light.as_mut() else {
            return Vec::new();
        };
        let Some(server) = light.pick_server() else {
            return Vec::new();
        };
        let indices = light.proof_indices.clone();
        light.proof_inflight = Some(ProofRequest {
            block,
            sent_ms: now_ms,
            server,
        });
        vec![Outgoing::To(server, Message::GetProof { block, indices })]
    }

    /// Handles a `Headers` response (or a single-header announcement):
    /// digest-check, timestamp-check and accept each header in order,
    /// requesting catch-up or follow-on batches as needed. Full nodes
    /// ignore stray `Headers` traffic.
    pub(crate) fn handle_headers(
        &mut self,
        now_ms: u64,
        from: usize,
        headers: Vec<BlockHeader>,
    ) -> Vec<Outgoing> {
        if self.role != Role::Light || self.light.is_none() {
            return Vec::new();
        }
        let batch_len = headers.len();
        // Only the awaited server's reply clears the in-flight request;
        // stray announcements must not cancel a catch-up.
        if let Some((_, server)) = self.light.as_ref().expect("light role").headers_inflight {
            if server == from {
                self.light.as_mut().expect("light role").headers_inflight = None;
            }
        }
        let mut out = Vec::new();
        let tip_before = self.light.as_ref().expect("light role").headers.tip();
        for header in headers {
            // Hashing a HashCore header runs its widget program anyway, so
            // the verifier-cost observation the cost-aware rule needs comes
            // free with the digest.
            let (digest, cost_ratio) = self.tree.digest_and_cost_of_header(&header);
            self.stats.verify_hash_ops += 1;
            let light = self.light.as_ref().expect("light role");
            if !self.timestamp_plausible(now_ms, &header, &light.headers) {
                self.stats.rejections.timestamp += 1;
                self.penalize(from);
                break;
            }
            let light = self.light.as_mut().expect("light role");
            match light.headers.accept_observed(header, digest, cost_ratio) {
                Ok(HeaderOutcome::AlreadyKnown) => {}
                Ok(HeaderOutcome::TipChanged { .. }) | Ok(HeaderOutcome::SideChain) => {
                    self.stats.headers_accepted += 1;
                    self.stats.verify_cost_ratio_sum += cost_ratio;
                    self.stats.verify_cost_blocks += 1;
                }
                Err(ForkError::UnknownParent { .. }) => {
                    // A gap: catch up from the sender, starting at our
                    // locator. The announced header itself arrives again
                    // in the response.
                    let locator = light.headers.locator();
                    light.headers_inflight = Some((now_ms, from));
                    out.push(Outgoing::To(from, Message::GetHeaders { locator }));
                    break;
                }
                Err(ForkError::InvalidBlock { reason }) => {
                    match reason {
                        InvalidReason::Target => self.stats.rejections.target_policy += 1,
                        _ => self.stats.rejections.pow += 1,
                    }
                    self.penalize(from);
                    break;
                }
            }
        }
        // A full batch means the server had more: stream the next one.
        let light = self.light.as_mut().expect("light role");
        if batch_len == MAX_HEADERS_PER_MSG && light.headers_inflight.is_none() {
            let locator = light.headers.locator();
            light.headers_inflight = Some((now_ms, from));
            out.push(Outgoing::To(from, Message::GetHeaders { locator }));
        }
        // The tip moved: prove its transactions. An in-flight request is
        // never abandoned — its reply must find someone awaiting it, or a
        // fake batch limping in late would count as unsolicited instead
        // of invalid. The newer tip is chased once this round trip ends.
        let tip = light.headers.tip();
        if tip != tip_before
            && !light.proof_indices.is_empty()
            && light.proved_tip != tip
            && light.proof_inflight.is_none()
        {
            out.extend(self.request_proof(now_ms, tip));
        }
        out
    }

    /// Handles a `Proof` response: verify the batch against the Merkle
    /// root committed in the (already PoW-checked) header. A bad batch is
    /// rejected, the server penalised and locally blacklisted, and the
    /// proof re-requested from the next server.
    pub(crate) fn handle_proof(
        &mut self,
        now_ms: u64,
        from: usize,
        block: Digest256,
        leaf_count: u32,
        items: Vec<(u32, Vec<u8>)>,
        nodes: Vec<Digest256>,
    ) -> Vec<Outgoing> {
        let Some(light) = self.light.as_mut() else {
            // Full nodes are never asked for proofs they requested.
            self.stats.rejections.unsolicited_proof += 1;
            return Vec::new();
        };
        // Penalty-free drop for answers nobody awaits: a late reply after
        // a re-request must not smear an honest, merely slow server.
        let solicited = matches!(
            &light.proof_inflight,
            Some(req) if req.block == block && req.server == from
        );
        if !solicited {
            self.stats.rejections.unsolicited_proof += 1;
            return Vec::new();
        }
        light.proof_inflight = None;
        let Some(header) = light.headers.header(&block) else {
            self.stats.rejections.unsolicited_proof += 1;
            return Vec::new();
        };
        let root = header.merkle_root;
        // The served indices must be exactly ones we asked for.
        let requested: BTreeSet<u32> = light.proof_indices.iter().copied().collect();
        let indices_ok = !items.is_empty() && items.iter().all(|(idx, _)| requested.contains(idx));
        let refs: Vec<(usize, &[u8])> = items
            .iter()
            .map(|(idx, tx)| (*idx as usize, tx.as_slice()))
            .collect();
        let proof = BatchProof { leaf_count, nodes };
        self.stats.verify_hash_ops += 1 + refs.len() as u64 + proof.nodes.len() as u64;
        if indices_ok && MerkleTree::verify_batch(root, &refs, &proof) {
            self.stats.proofs_verified += 1;
            self.stats.tx_bytes_proved += items.iter().map(|(_, tx)| tx.len() as u64).sum::<u64>();
            let light = self.light.as_mut().expect("light role");
            light.proved_tip = block;
            Vec::new()
        } else {
            self.stats.rejections.invalid_proof += 1;
            self.penalize(from);
            let light = self.light.as_mut().expect("light role");
            light.bad_servers.insert(from);
            self.stats.proof_retries += 1;
            // Re-request for whatever the tip is *now* — the chain may
            // have moved past `block` during the failed round trip.
            let tip = light.headers.tip();
            self.request_proof(now_ms, tip)
        }
    }
}
