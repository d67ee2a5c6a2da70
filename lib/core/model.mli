(** The named RRFD systems of Section 2, packaged.

    A model bundles the predicate defining the system with a canonical
    random-detector generator whose histories satisfy it by construction, so
    experiments can quantify over "runs of the model" uniformly. *)

type t = {
  name : string;
  description : string;  (** Which traditional system this corresponds to. *)
  predicate : Predicate.t;
  generator : Dsim.Rng.t -> Detector.t;
}

val sync_omission : n:int -> f:int -> t
(** Item 1: synchronous message passing, at most [f] send-omission faults. *)

val sync_crash : n:int -> f:int -> t
(** Item 2: synchronous message passing, at most [f] crash faults. *)

val async_message_passing : n:int -> f:int -> t
(** Item 3: asynchronous message passing, at most [f] crash failures. *)

val async_mixed : n:int -> f:int -> t:int -> t
(** Item 3's system B, of which two rounds implement one round of the
    item-3 system. *)

val shared_memory : n:int -> f:int -> t
(** Item 4: asynchronous SWMR shared memory, at most [f] crash faults. *)

val atomic_snapshot : n:int -> f:int -> t
(** Item 5: asynchronous atomic-snapshot shared memory (the iterated
    immediate snapshot structure). *)

val detector_s : n:int -> t
(** Item 6: asynchronous message passing augmented with failure detector S
    (wait-free: up to [n − 1] failures, one immortal never suspected). *)

val k_set_detector : n:int -> k:int -> t
(** Section 3's system, in which k-set agreement takes one round. *)

val identical_views : n:int -> t
(** Equation (5): the system the semi-synchronous model of Sec. 5
    implements in two steps per round. *)

val all : n:int -> f:int -> t list
(** Every model above at its canonical parameters (with [t = f] for the
    mixed model, [k = f + 1] for the k-set detector), which the model
    tests walk to check every generator against its predicate. *)
