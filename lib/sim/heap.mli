(** Binary min-heaps with stable tie-breaking.

    Used as the event queue of the discrete-event simulator.  Entries with
    equal priority dequeue in insertion order, which keeps simulations
    deterministic independently of heap internals. *)

type 'a t
(** A mutable min-heap of values prioritised by [float] keys. *)

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val length : 'a t -> int
(** [length h] is the number of entries in [h]. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> float -> 'a -> unit
(** [push h priority v] inserts [v] with the given priority. *)

val pop : 'a t -> (float * 'a) option
(** [pop h] removes and returns the minimum-priority entry, breaking priority
    ties by insertion order; [None] when empty. *)

val peek : 'a t -> (float * 'a) option
(** [peek h] is the entry [pop] would return, without removing it. *)
