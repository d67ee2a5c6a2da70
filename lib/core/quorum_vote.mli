(** Two-threshold quorum voting: the round machine behind fork
    accountability (E24).

    One shot, two communication-closed rounds, in the style of a single
    Tendermint height stripped to its quorum-intersection core:

    - Round 1 (vote): every process broadcasts its input value and
      decides [v] iff the votes it holds when the round completes include
      at least [n − f] {e distinct senders} for [v].
    - Round 2 (certificate): a decided process broadcasts the sender set
      it counted.  Certificates are evidence for the auditor
      ({!Msgnet.Accountability}), never a way to decide — a bystander
      that accepts a certificate it cannot check would let a single
      forger fork the system.

    With [n ≥ 3f + 1] two conflicting decisions force two vote quorums
    whose intersection has at least [n − 2f ≥ f + 1] members, each of
    which signed both values — the ≥ f+1 provably-faulty bound.  Under
    benign (crash/omission) faults the unanimity requirement makes the
    protocol safe outright; with pairwise-distinct default inputs it
    simply never decides, which is the conservative reading of "no
    quorum, no decision". *)

type msg =
  | Vote of int  (** Round-1 ballot for a value. *)
  | Cert of { v : int; quorum : Pset.t }
      (** Round-2 claim: "I decided [v] on the round-1 votes of [quorum]". *)
  | Idle  (** Round-2 filler from a process that decided nothing. *)

type state

val pp_msg : Format.formatter -> msg -> unit

val algorithm : inputs:int array -> f:int -> (state, msg, int) Algorithm.t
(** [algorithm ~inputs ~f] decides on vote quorums of [n − f] distinct
    senders.  @raise Invalid_argument (at [init]) unless [0 ≤ f < n]. *)
