(** The round-by-round executor.

    Runs an {!Algorithm} against a {!Detector}: each round it collects the
    emitted messages, asks the detector for the fault sets, delivers to every
    process exactly the messages of processes outside its fault set, and
    records the round in the fault history.  Optionally a {!Predicate} is
    re-checked after every round, so a misbehaving detector is caught at the
    earliest offending round. *)

val run :
  n:int ->
  ?max_rounds:int ->
  ?check:Predicate.t ->
  ?stop_when_decided:bool ->
  algorithm:('s, 'm, 'out) Algorithm.t ->
  detector:Detector.t ->
  unit ->
  'out Substrate.execution
(** [run ~n ~algorithm ~detector ()] executes rounds until every process has
    decided (when [stop_when_decided], the default) or [max_rounds] (default
    64) have run.  With [stop_when_decided:false] it always runs exactly
    [max_rounds] rounds, which is how fixed-horizon protocols such as the
    full-information algorithm are driven.

    The execution's [induced] history is the detector's output, its
    [substrate] is ["engine"], no process ever crashes
    ([crashed = Pset.empty]) and every process completes every executed
    round.  A predicate violation stops the run at the violating round.

    @raise Invalid_argument if [n] is out of range, if the detector returns a
    malformed round (wrong length or ids out of range), or if a detector
    marks every process faulty to some process ([D(i,r) = S] — the paper
    notes this can never happen, as not all processes can be late). *)

val states_after :
  n:int ->
  rounds:int ->
  algorithm:('s, 'm, 'out) Algorithm.t ->
  detector:Detector.t ->
  unit ->
  's array * Fault_history.t
(** [states_after ~n ~rounds ~algorithm ~detector ()] runs exactly [rounds]
    rounds and returns the resulting per-process states together with the
    fault history — the raw material for simulation arguments that inspect
    states rather than decisions. *)

(** {1 The differential oracle} *)

type 'out differential = {
  replayed : 'out Substrate.execution;
      (** The engine run pinned to the execution's induced history
          ({!Detector.of_history}, exactly that many rounds, no early
          stop): its [induced] is the input history bit-for-bit. *)
  divergence : Proc.t option;
      (** The lowest-id {!Substrate.comparable} process whose decision
          the replay did not reproduce, or [None] when they all agree. *)
}

val differential :
  ?equal:('out -> 'out -> bool) ->
  algorithm:('s, 'm, 'out) Algorithm.t ->
  'out Substrate.execution ->
  'out differential
(** The one oracle over every substrate: replay [ex.induced] pinned and
    compare, on the comparable processes, [ex.decisions] with [decide] of
    the replay's final states ([equal] defaults to structural equality).
    For an irrevocable decision that is the replay's first decision; for
    the asynchronous round layer, which reads decisions off final states,
    it is the same reading for any algorithm.  Because every substrate is
    communication-closed — a round-[r] message is emitted from the
    sender's state after [r-1] completed rounds, whatever the wall clock
    says — a divergence is a bug in the substrate or in the history
    extraction. *)
