(** The iterated immediate snapshot model (item 5) as an RRFD.

    Each round is one fresh one-shot immediate snapshot: the fault set
    handed to process [i] is the complement of its view.  Running the
    protocol under adversarial interleavings therefore {e generates}
    histories of the item-5 predicate from real shared-memory executions —
    the "system N implements A" direction of item 5, with the opposite
    direction a corollary of the protocol's output properties. *)

val detector : Dsim.Rng.t -> n:int -> Rrfd.Detector.t
(** A detector whose every round is produced by actually executing the
    participating-set protocol under a random interleaving.  Histories
    satisfy [Rrfd.Predicate.snapshot ~f:(n - 1)] (wait-free). *)

val history : Dsim.Rng.t -> n:int -> rounds:int -> Rrfd.Fault_history.t
(** [history rng ~n ~rounds] materialises a fault history of the model. *)
