type t = Protocols.Catalog.t

module Catalog = Protocols.Catalog

(* The checker's n varies (shrinking merges processes away) but the
   protocol's horizon is fixed at its catalog defaults. *)
let rounds p =
  let n = Catalog.default_n p in
  Catalog.horizon p ~n ~f:(Catalog.default_f p ~n)

let run p ~n ~max_rounds ~check ~detector =
  let inputs = Catalog.default_inputs ~n in
  let ex =
    Catalog.run_engine p ~inputs ~check ~max_rounds ~n
      ~f:(Catalog.default_f p ~n) ~detector ()
  in
  {
    Property.n;
    inputs;
    decisions = ex.decisions;
    decision_rounds = ex.decision_rounds;
    rounds_used = ex.rounds_used;
    history = ex.induced;
    violation = ex.violation;
  }

(* Replay a pinned history, padded with failure-free rounds up to the
   protocol's horizon.  Without the padding, shrinking away a round of a
   multi-round protocol would starve it of rounds and every candidate would
   "fail" by trivial non-termination; with it, a shortened history means
   "the adversary goes quiet", and the online predicate check rejects
   paddings the model forbids (e.g. crash-closure never lets the adversary
   unsuspect anyone). *)
let padded p history =
  ( Rrfd.Detector.of_history history,
    max (Rrfd.Fault_history.rounds history) (rounds p) )

let run_history p ~check history =
  let detector, max_rounds = padded p history in
  run p ~n:(Rrfd.Fault_history.n history) ~max_rounds ~check ~detector

let transcript p ~check history =
  let n = Rrfd.Fault_history.n history in
  let detector, max_rounds = padded p history in
  Catalog.transcript p ~check ~n ~f:(Catalog.default_f p ~n) ~max_rounds
    ~detector ()

let kset_one_round = Catalog.find_exn "kset-one-round"

let adopt_commit = Catalog.find_exn "adopt-commit"
