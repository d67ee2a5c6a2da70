(** Fork accountability: after a safety violation, name the culprits.

    The construction follows the Tendermint/accountable-BFT line of
    work: run a two-threshold quorum vote ({!Rrfd.Quorum_vote}) over the
    signed transport ({!Network} with [log_sends]), and when more than
    [n/3] equivocators force two honest processes to decide differently,
    replay the signed send log and output at least [f + 1]
    provably-faulty processes, each with a self-contained proof:

    - {e equivocation} — two conflicting signed messages for the same
      round.  Honest processes send one canonical payload per round to
      every receiver, so a conflict convicts the signer.
    - {e phantom quorum} — a vote certificate citing a quorum with no
      justifying signed votes in the log (or an undersized quorum).

    Why the bound holds: a decision commits to the {e first} [n − f]
    distinct round-1 votes, which must be unanimous, and certificates
    are never a decision path — so two honest decisions on different
    values pin two quorums whose intersection has at least
    [n − 2f ≥ f + 1] members (for [n ≥ 3f + 1]), every one of which
    signed conflicting votes.  Soundness is unconditional: honest
    payloads are never tampered with (the transport's tamper hook fires
    only for adversary-marked processes), so no proof can mention an
    honest signer. *)

type wire = int * Rrfd.Quorum_vote.msg
(** What the transport carries: [(round, body)]. *)

type strategy = {
  votes : int array;
      (** [votes.(p)] is the round-1 vote this Byzantine process shows
          to receiver [p] — per-receiver values are equivocation. *)
  cert : (int * Rrfd.Pset.t) option;
      (** [Some (v, q)] replaces the round-2 message with a fabricated
          certificate claiming quorum [q] decided [v]. *)
}
(** A Byzantine process's lying plan.  Honest processes have no
    strategy ([None] in the strategy array). *)

type proof =
  | Equivocation of {
      first : wire Network.signed;
      second : wire Network.signed;
    }
  | Phantom_quorum of { cert : wire Network.signed; missing : Rrfd.Pset.t }
      (** [missing] are the cited quorum members with no matching signed
          vote addressed to the cert's signer (empty iff the quorum was
          merely undersized). *)

type accusation = { accused : Rrfd.Proc.t; proof : proof }

type outcome = {
  decisions : (int * Rrfd.Pset.t) option array;
      (** Per process: decided value and the vote quorum it committed
          to.  Byzantine slots are mechanical, not trusted. *)
  fork : (Rrfd.Proc.t * Rrfd.Proc.t) option;
      (** Two {e honest} processes that decided different values, if
          any — the safety violation that triggers the audit. *)
  byzantine : Rrfd.Pset.t;  (** Ground truth, for checking the audit. *)
  accusations : accusation list;
  accused : Rrfd.Pset.t;  (** Signers named by some accusation. *)
  log : wire Network.signed list;  (** The evidence the audit replayed. *)
  messages_tampered : int;
}

type verdict =
  | Accountable  (** No honest accused; any fork yielded ≥ f+1 accused. *)
  | Unsound of Rrfd.Pset.t  (** Honest processes accused — must never happen. *)
  | Incomplete of { accused : Rrfd.Pset.t; needed : int }
      (** A fork happened but the audit named fewer than [f + 1]. *)

val run :
  ?seed:int ->
  ?min_delay:float ->
  ?max_delay:float ->
  n:int ->
  f:int ->
  inputs:int array ->
  strategies:strategy option array ->
  unit ->
  outcome
(** One quorum-vote execution over the signed transport: round 1 at
    time zero (every process broadcasts its input vote; the transport
    applies each Byzantine sender's strategy per receiver), round 2
    after all round-1 deliveries (deciders publish certificates,
    everyone else [Idle], forgers substitute their fabricated cert).
    A process decides at the moment its [n − f]-th distinct round-1
    vote arrives, iff all of them agree; loopback is never tampered, so
    even a Byzantine process's own recorded vote is canonical.
    @raise Invalid_argument unless [0 ≤ f < n] and both arrays have
    length [n]. *)

val audit : n:int -> f:int -> log:wire Network.signed list -> accusation list
(** Pure replay of a signed log — no access to the execution, ground
    truth, or strategies — producing one accusation per (signer, proof
    class) conviction.  This is the function whose soundness and
    completeness the E24 battery establishes. *)

val pp_accusation : Format.formatter -> accusation -> unit
(** ["p2: equivocation: #5 p2→p0@3.1 r1:vote 0 vs #9 p2→p3@4.2 r1:vote 1"]. *)

val check : f:int -> outcome -> verdict
(** Two-sided judgement of an outcome: soundness (accused ⊆ byzantine)
    and, when a fork occurred, completeness (≥ f+1 accused). *)

val conflicting_sends :
  key:('msg Network.signed -> 'k option) ->
  'msg Network.signed list ->
  (Rrfd.Proc.t * 'msg Network.signed * 'msg Network.signed) list
(** Generic equivocation scanner shared with the CT-consensus probe:
    two entries by one signer that agree on [key] but carry different
    payloads convict the signer (first conflicting pair per
    [(signer, key)]; [None] keys are exempt — e.g. heartbeats, which
    repeat by design). *)

(** {1 Strategy constructors} *)

val honest : n:int -> strategy option array
(** Everybody honest: [Array.make n None]. *)

val random_strategy :
  Dsim.Rng.t ->
  n:int ->
  f:int ->
  inputs:int array ->
  ?forge_cert:bool ->
  unit ->
  strategy
(** A fork-biased random plan: each receiver is shown, with probability
    1/2, its own input echoed back (the classic split vote), otherwise a
    uniform input value.  With [forge_cert] the round-2 message becomes
    a certificate for a random value citing a random [n − f]-subset. *)

val vote_strategy_count : n:int -> values:int -> int
(** [values]{^ [n]} — the size of the exhaustive per-process strategy
    space over a [values]-element vote domain. *)

val vote_strategy_of_index : n:int -> values:int -> int -> strategy
(** Decode an index in [\[0, vote_strategy_count)] into a vote
    strategy (base-[values] digits, receiver 0 least significant; no
    forged cert), so an exhaustive campaign can shard the whole space by
    integer range.
    @raise Invalid_argument if the index is out of range. *)
