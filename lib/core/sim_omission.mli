(** Theorem 4.1: asynchronous snapshot systems simulate synchronous
    omission-fault systems.

    An asynchronous atomic-snapshot RRFD system with at most [k] failures
    (predicate of item 5) runs any synchronous algorithm {e unchanged} for
    [⌊f/k⌋] rounds while staying inside the synchronous send-omission
    predicate with at most [f] faults: each asynchronous round misses at most
    [k] processes, and comparability makes the per-round union of misses at
    most [k], so after [⌊f/k⌋] rounds the cumulative union is at most
    [k·⌊f/k⌋ ≤ f].

    The simulation is the identity on algorithms — the theorem is predicate
    arithmetic — so this module provides the round-budget computation and a
    runner that executes a synchronous algorithm in the asynchronous system
    and verifies the omission predicate on the produced history. *)

val budget : f:int -> k:int -> int
(** [budget ~f ~k] is [⌊f/k⌋], the number of synchronous rounds the
    asynchronous system can simulate.
    @raise Invalid_argument unless [f ≥ k > 0]. *)

type 'out result = {
  execution : 'out Substrate.execution;
      (** The run of the synchronous algorithm in the asynchronous system
          ([budget ~f ~k] rounds, detector checked online against the
          snapshot predicate with [k] failures). *)
  omission_violation : string option;
      (** [None] iff the produced history satisfies the synchronous
          send-omission predicate with at most [f] faults — the theorem's
          conclusion. *)
}

val simulate :
  n:int ->
  f:int ->
  k:int ->
  algorithm:('s, 'm, 'out) Algorithm.t ->
  detector:Detector.t ->
  unit ->
  'out result
(** [simulate ~n ~f ~k ~algorithm ~detector ()] runs [algorithm] for
    [budget ~f ~k] rounds under [detector] (which must satisfy the
    atomic-snapshot predicate with at most [k] failures; this is checked
    online) and reports whether the resulting history lies inside
    [Predicate.omission ~f]. *)
