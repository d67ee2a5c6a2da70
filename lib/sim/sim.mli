(** Discrete-event simulator core.

    A simulator owns a virtual clock and an event queue.  Events are thunks
    scheduled at virtual times; running the simulator pops events in time
    order (insertion order within a time instant) and executes them, which may
    schedule further events.  The substrate libraries ([msgnet], [semisync])
    build their network and timing models on top of this loop. *)

type t
(** A simulator instance. *)

val create : ?seed:int -> unit -> t
(** [create ?seed ()] is a fresh simulator whose clock reads [0.0].
    [seed] (default 0) initialises the simulator's random stream. *)

val now : t -> float
(** [now sim] is the current virtual time. *)

val rng : t -> Rng.t
(** [rng sim] is the simulator's deterministic random stream. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** [schedule sim ~delay f] arranges for [f sim] to run at time
    [now sim +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** [schedule_at sim ~time f] arranges for [f sim] to run at absolute virtual
    time [time].
    @raise Invalid_argument if [time] is in the past or not finite. *)

val pending : t -> int
(** [pending sim] is the number of events still queued. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** [run ?until ?max_events sim] executes events until the queue drains, the
    clock passes [until], or [max_events] events have run, whichever comes
    first.  Events scheduled exactly at [until] still execute. *)

val executed : t -> int
(** [executed sim] is the total number of events executed so far. *)
