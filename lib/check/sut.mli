(** Systems under test: the model checker's view of a protocol-catalog
    entry.

    A SUT {e is} a {!Protocols.Catalog.t} — the catalog is the single
    definition site for algorithms — and this module adds the checker's
    two ways to run one: an observed engine execution under a detector,
    and the replay of a pinned fault history.  Inputs are always
    [Protocols.Catalog.default_inputs n] (every process proposes its own
    id, the hardest case for agreement), which keeps counterexamples
    meaningful after the shrinker merges processes away. *)

type t = Protocols.Catalog.t

val rounds : t -> int
(** Rounds the protocol needs to terminate (its horizon at the entry's
    default [n]/[f]) — the default history length the fuzzer draws. *)

val run :
  t ->
  n:int ->
  max_rounds:int ->
  check:Rrfd.Predicate.t ->
  detector:Rrfd.Detector.t ->
  Property.obs
(** One execution, observed.  The engine stops when every process decided
    or after [max_rounds] rounds, and re-checks [check] online so a
    detector straying outside its predicate is reported in
    [obs.violation]. *)

val run_history :
  t -> check:Rrfd.Predicate.t -> Rrfd.Fault_history.t -> Property.obs
(** Replay a pinned fault history ({!Rrfd.Detector.of_history}).  A
    history shorter than the SUT's horizon is padded with failure-free
    rounds up to {!rounds} — so shrinking a round away means "the adversary
    goes quiet", never "the protocol is starved of rounds" — and the
    engine's online check rejects paddings the predicate forbids.
    Deterministic: equal histories produce equal observations, which is
    what makes counterexample replay and shrinking sound. *)

val transcript :
  t -> check:Rrfd.Predicate.t -> Rrfd.Fault_history.t -> string
(** The rendered {!Rrfd.Trace} of replaying the history — what
    [check --replay] prints. *)

(** {1 Stock systems} *)

val kset_one_round : t
(** Theorem 3.1's one-round algorithm ({!Rrfd.Kset.one_round}). *)

val adopt_commit : t
(** The two-round adopt-commit protocol ({!Rrfd.Adopt_commit.algorithm}),
    decisions packed through {!Property.encode_outcome}. *)
