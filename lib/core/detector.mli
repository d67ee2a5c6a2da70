(** Round-by-round fault detectors as adversaries.

    A detector chooses, for each round, the fault sets [D(i,r)] handed to
    every process.  The paper views the RRFD as an adversary that is part of
    the system: the more histories it can produce, the harder the model.
    Detectors here may consult the fault history so far, so stateless
    detectors are pure functions of the history; detectors with private state
    (e.g. a sampled crash schedule) close over it.

    Constructive generators for each named predicate live in the [adversary]
    library; this module provides the type and the basic constructors the
    core algorithms and engine need. *)

type t
(** A fault-detector adversary for a fixed number of processes. *)

val name : t -> string

val make : name:string -> (Fault_history.t -> Pset.t array) -> t
(** [make ~name next] builds a detector; [next history] must return the
    fault sets for round [Fault_history.rounds history + 1], one per
    process. *)

val next : t -> Fault_history.t -> Pset.t array
(** Produce the next round's fault sets.  The engine validates the result's
    shape; predicate conformance is checked separately. *)

val none : t
(** The failure-free detector: [D(i,r) = ∅] always (perfect synchrony). *)

val of_schedule : ?after:Pset.t array -> Pset.t array list -> t
(** [of_schedule rounds] replays the given per-round fault sets, first round
    first; once the schedule is exhausted it keeps returning [after]
    (default: the last scheduled round, or all-empty if the schedule is
    empty).  Array lengths must match the engine's [n]. *)

val of_history : Fault_history.t -> t
(** [of_history h] pins [h]: it replays [h]'s rounds, first round first,
    then answers failure-free ([D(i,r) = ∅]) forever.  This is the one
    pinned-replay detector — {!Engine.differential} runs it for exactly
    [Fault_history.rounds h] rounds, and the model checker pads it with
    failure-free rounds up to a protocol's horizon. *)

val constant : n:int -> Pset.t array -> t
(** [constant ~n d] returns the same fault sets every round. *)

val map : name:string -> (Fault_history.t -> Pset.t array -> Pset.t array) -> t -> t
(** [map ~name f d] post-processes [d]'s output each round. *)

val recording : t -> t * (unit -> Pset.t array list)
(** [recording d] is a detector behaving exactly like [d] that also logs
    every round it produces; the second component returns the rounds so
    far (first round first).  Replaying the log through {!of_schedule}
    lets two algorithms face the {e same} adversary — the fair-comparison
    harness used by the ablation experiments. *)
