(** Readable execution transcripts.

    The engine's {!Substrate.execution} carries the fault history and decisions;
    this module runs an algorithm while also recording what every process
    emitted and decided each round, and renders the transcript — the
    debugging view for algorithm authors and the pretty output used by the
    examples. *)

type 'out round = {
  number : int;
  emissions : string array;  (** Rendered message of each process. *)
  fault_sets : Pset.t array;
  new_decisions : (Proc.t * 'out) list;
      (** Processes that first decided at this round. *)
}

type 'out t = {
  n : int;
  rounds : 'out round list;  (** First round first. *)
  execution : 'out Substrate.execution;
}

val record :
  n:int ->
  ?max_rounds:int ->
  ?check:Predicate.t ->
  ?stop_when_decided:bool ->
  pp_msg:(Format.formatter -> 'm -> unit) ->
  algorithm:('s, 'm, 'out) Algorithm.t ->
  detector:Detector.t ->
  unit ->
  'out t
(** Like {!Engine.run}, additionally rendering each emission with
    [pp_msg].  The transcript is produced by replaying the recorded fault
    history, so the algorithm must be deterministic (every algorithm in
    this repository is). *)

val pp :
  (Format.formatter -> 'out -> unit) -> Format.formatter -> 'out t -> unit
(** Render the whole transcript, one block per round. *)
