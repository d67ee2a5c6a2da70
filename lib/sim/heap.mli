(** Binary min-heaps with stable tie-breaking.

    Used as the event queue of the discrete-event simulator.  Entries with
    equal priority dequeue in insertion order, which keeps simulations
    deterministic independently of heap internals.

    The heap is a structure of arrays ordered by (key, sequence number):
    unboxed [float] keys, [int] insertion sequence numbers and [int]
    payload slots, with the payloads in a separate array that sifts never
    touch.  Once the arrays have grown to the queue's depth, {!push},
    {!min_priority} and {!pop_min} allocate nothing themselves. *)

type 'a t
(** A mutable min-heap of values prioritised by [float] keys. *)

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty heap.  [dummy] fills the slots that
    hold no entry, so a popped value is never kept alive by the heap. *)

val length : 'a t -> int
(** [length h] is the number of entries in [h]. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> float -> 'a -> unit
(** [push h priority v] inserts [v] with the given priority. *)

val min_priority : 'a t -> float
(** [min_priority h] is the priority of the entry {!pop_min} would remove.
    @raise Invalid_argument if [h] is empty. *)

val pop_min : 'a t -> 'a
(** [pop_min h] removes and returns the value of the minimum-priority
    entry, breaking priority ties by insertion order.
    @raise Invalid_argument if [h] is empty. *)
