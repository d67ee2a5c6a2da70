(** Checkers for k-set agreement (and consensus, the [k = 1] case).

    The task (Sec. 3): each of [n > k] processes chooses a value that is the
    initial value of one of the processes; at most [k] different values are
    chosen.  The checkers evaluate an execution's decisions against its
    inputs and report every violated clause. *)

type report = {
  n : int;
  undecided : Rrfd.Proc.t list;  (** Processes with no decision. *)
  distinct_values : int list;  (** Sorted distinct decided values. *)
  invalid : (Rrfd.Proc.t * int) list;
      (** Decisions that are not the input of any process. *)
}

val evaluate : inputs:int array -> decisions:int option array -> report
(** [evaluate ~inputs ~decisions] summarises an execution.
    @raise Invalid_argument on length mismatch. *)

val check :
  ?allow_undecided:Rrfd.Pset.t ->
  k:int ->
  inputs:int array ->
  int option array ->
  string option
(** [check ~k ~inputs decisions] is [None] iff the execution solves k-set
    agreement: every process outside [allow_undecided] (default: none)
    decided, every decision is some input (validity), and at most [k]
    distinct values were decided.  Otherwise it describes the earliest
    violated clause. *)

val distinct_decisions : decisions:int option array -> int
(** Number of distinct decided values (undecided processes ignored). *)
