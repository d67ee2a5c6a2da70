(** The execution-substrate abstraction.

    The paper's central claim is that one algorithm text runs unchanged
    over synchrony, asynchrony and shared memory once the environment is
    presented as an RRFD.  The repository carries four concrete
    environments — the abstract detector-driven {!Engine}, the lock-step
    synchronous network ([Syncnet.Sync_net]), the event-driven
    asynchronous round layer ([Msgnet.Round_layer]), and the
    real-concurrency domain-per-process runner ([Live.Live]) — and each
    of them is a {e substrate}: something that drives an {!Algorithm} and
    yields the same uniform observation, an {!execution}.

    Every substrate's [run] returns an {!execution}, and everything
    downstream — the protocol catalog, the cross-substrate differential
    matrix (E22), the live-vs-model matrix (E23), the model checker's
    SUTs, the experiment tables — consumes executions and never needs to
    know which substrate produced them.  The one oracle over them is
    {!Engine.differential}: replay the induced history pinned on the
    engine and compare decisions on the {!comparable} processes.  This is
    the executable form of the "communication-closed" correspondence
    (Damian et al.) and the heard-of characterisation (Shimi et al.):
    whatever the wall clock did, the observable content of a run is its
    decisions plus the fault history it induced. *)

type 'out execution = {
  substrate : string;  (** Name of the substrate that ran the algorithm. *)
  decisions : 'out option array;
      (** First decision of each process ([None] if it never decided).
          The asynchronous round layer has no global round clock and
          reads decisions off the final states instead. *)
  decision_rounds : int option array;
      (** Round at which each process first decided, when the substrate
          tracks it.  The asynchronous round layer reports the last
          completed round of a decided process; the live substrate
          reports the (real-time) round whose delivery first made
          [decide] answer [Some _] at that process. *)
  rounds_used : int;  (** Rounds executed (the induced history's length).
          Simulated substrates may stop early once every process decided;
          the live substrate has no global decided-everywhere view, so
          its processes always run the full horizon and [rounds_used]
          equals the requested round count. *)
  induced : Fault_history.t;
      (** The fault history the run induced: for the engine this is the
          detector's output, for a real network — simulated or live — the
          per-round complement of who was heard. *)
  counters : Counters.t;
      (** Exact work accounting, in the same vocabulary on every
          substrate: rounds, messages delivered, detector queries,
          predicate checks.  See {!Counters}. *)
  violation : string option;
      (** Earliest violation of the optional online predicate check, when
          the run requested one. *)
  crashed : Pset.t;
      (** Processes the substrate actually crashed ([Pset.empty] for the
          abstract engine, whose processes all keep executing). *)
  completed : int array;
      (** Rounds each process completed.  The asynchronous layer may
          leave slow processes behind; a crashed process completed the
          rounds before it stopped. *)
  wall_ns : int64 option;
      (** Real elapsed wall-clock time of the run in nanoseconds.
          [Some _] only on substrates whose nondeterminism comes from an
          actual scheduler (the live substrate); [None] on deterministic
          simulations, whose "time" is virtual and whose outputs must not
          depend on the wall clock. *)
}

val comparable : 'out execution -> Proc.t -> bool
(** [comparable ex i] holds when a pinned replay of [ex.induced] must
    reproduce [i]'s decision: [i] completed every round of the induced
    history, whether or not it crashed afterwards.  On the engine and the
    live substrate that is every process; on the synchronous network
    every process the pattern did not crash before the last round (a
    process that stops mid-protocol may not have decided yet, while the
    RRFD reading keeps executing it); on the asynchronous layer every
    process that completed the longest extracted prefix, including one
    that crashed after it.  {!Engine.differential} is the oracle that
    applies it. *)
