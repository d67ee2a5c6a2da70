(** The protocol catalog: every round-machine protocol in the repository,
    registered exactly once.

    An entry packages an [('s, 'm, int) Rrfd.Algorithm.t] constructor with
    the protocol's horizon, default parameters, printers and checker
    vocabulary.  The state and message types are existentially packed, so
    the only way to use an entry is through the substrate runners below —
    which is the point: downstream layers (the model checker's SUTs, the
    experiment run-loops, the CLI's protocol names, the cross-substrate
    matrix E22) are all derived from this single definition site instead
    of re-instantiating algorithms locally. *)

type packed =
  | Packed : {
      pp_msg : Format.formatter -> 'm -> unit;
      algorithm : inputs:int array -> f:int -> ('s, 'm, int) Rrfd.Algorithm.t;
    }
      -> packed  (** The algorithm constructor, state/message types hidden. *)

type t = {
  name : string;  (** CLI / checker name, kebab-case, unique. *)
  doc : string;  (** One-line description for listings. *)
  horizon : n:int -> f:int -> int;
      (** Rounds by which every process has decided (under the protocol's
          intended predicate). *)
  default_n : int;
  default_f : n:int -> int;
  pp_out : Format.formatter -> int -> unit;  (** Decision printer. *)
  properties : string list;
      (** Default {!Check.Spec} property names the protocol answers to. *)
  faults : string list;
      (** Fault models the protocol's guarantees are stated against, drawn
          from {!known_faults}.  Entries claiming ["byzantine"] must keep
          their safety properties when adversary-marked processes lie
          about content (E24's battery holds them to it); the others are
          only ever exercised under crash/omission schedules. *)
  packed : packed;
}

val all : t list
(** Registration order is the display order everywhere. *)

val names : string list

val find : string -> t option

val find_exn : string -> t
(** @raise Invalid_argument on unknown names, listing the known ones. *)

val name : t -> string

val doc : t -> string

val horizon : t -> n:int -> f:int -> int

val default_n : t -> int

val default_f : t -> n:int -> int

val pp_out : t -> Format.formatter -> int -> unit

val properties : t -> string list

val faults : t -> string list

val known_faults : string list
(** The allowed fault-model vocabulary: ["crash"], ["omission"],
    ["byzantine"].  The catalog invariant test rejects entries declaring
    anything else. *)

val default_inputs : n:int -> int array
(** [Tasks.Inputs.distinct n] — every process proposes its own id, the
    hardest case for agreement. *)

(** {1 Substrate runners}

    Each runner instantiates the entry's algorithm (default inputs
    {!default_inputs} unless given) and drives it through one substrate's
    [run], returning the uniform [int Rrfd.Substrate.execution] record. *)

val run_engine :
  t ->
  ?inputs:int array ->
  ?check:Rrfd.Predicate.t ->
  ?stop_when_decided:bool ->
  ?max_rounds:int ->
  n:int ->
  f:int ->
  detector:Rrfd.Detector.t ->
  unit ->
  int Rrfd.Substrate.execution
(** The abstract engine ({!Rrfd.Engine.run}; [max_rounds] defaults to
    64). *)

val run_sync :
  t ->
  ?inputs:int array ->
  ?check:Rrfd.Predicate.t ->
  ?stop_when_decided:bool ->
  ?rounds:int ->
  n:int ->
  f:int ->
  pattern:Syncnet.Faults.t ->
  unit ->
  int Rrfd.Substrate.execution
(** The lock-step synchronous network ({!Syncnet.Sync_net.run}).
    [rounds] defaults to the protocol's horizon at ([n], [f]). *)

val run_live :
  t ->
  ?inputs:int array ->
  ?patience:Live.Patience.t ->
  ?rounds:int ->
  n:int ->
  f:int ->
  unit ->
  int Rrfd.Substrate.execution
(** The live substrate ({!Live.run}): one OCaml domain per process, real
    scheduling, omission observed rather than injected.  [patience]
    defaults to {!Live.Patience.Wait_quorum} (at the given [f]); [rounds]
    defaults to the protocol's horizon at ([n], [f]).  Nondeterministic
    run to run — but [execution.induced] is the exact heard-of record, so
    its {!differential} is the deterministic pin. *)

val run_msgnet :
  t ->
  ?inputs:int array ->
  ?crashes:(Rrfd.Proc.t * float) list ->
  ?adversary:Msgnet.Adversary.t ->
  ?min_delay:float ->
  ?max_delay:float ->
  ?retransmit_every:float ->
  ?time_horizon:float ->
  ?rounds:int ->
  seed:int ->
  n:int ->
  f:int ->
  unit ->
  int Rrfd.Substrate.execution
(** The event-driven asynchronous network ({!Msgnet.Round_layer.run}'s
    execution).  [rounds] defaults to the protocol's horizon;
    [time_horizon] is the simulated-time repair cutoff
    ({!Msgnet.Round_layer.run}'s [horizon]). *)

val differential :
  t ->
  ?inputs:int array ->
  f:int ->
  int Rrfd.Substrate.execution ->
  int Rrfd.Engine.differential
(** {!Rrfd.Engine.differential} with the entry's algorithm (instantiated
    at the execution's [n], [f] and [inputs], default
    {!default_inputs}): the pinned replay of [ex.induced] and the first
    comparable process whose decision it did not reproduce. *)

val transcript :
  t ->
  ?inputs:int array ->
  ?check:Rrfd.Predicate.t ->
  n:int ->
  f:int ->
  max_rounds:int ->
  detector:Rrfd.Detector.t ->
  unit ->
  string
(** Rendered {!Rrfd.Trace} of one engine execution — what [check --replay]
    and [trace] print. *)
