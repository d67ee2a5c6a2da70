(* The classic detector-augmented stack the paper contrasts itself with
   (Sections 6-7), plus a round-by-round RRFD transcript.

   1. ABD: an atomic register built from asynchronous messages + majority.
   2. Heartbeats + rotating-coordinator consensus over the same network.
   3. The same task solved the RRFD way, with a full transcript printed by
      the Trace module — compare the two world-views side by side.

     dune exec examples/detector_stack.exe *)

let () =
  Printf.printf "=== 1. ABD register over messages (item 4's substrate) ===\n";
  let sim = Dsim.Sim.create ~seed:5 () in
  let reg = Msgnet.Abd.create ~sim ~n:5 ~f:2 ~writer:0 () in
  Msgnet.Abd.crash reg 4;
  Msgnet.Abd.write reg ~value:2024 ~on_done:(fun () ->
      Printf.printf "  write(2024) completed at t=%.1f\n" (Dsim.Sim.now sim);
      Msgnet.Abd.read reg ~proc:3 ~on_done:(fun v ->
          Printf.printf "  read at p3 -> %s at t=%.1f\n"
            (match v with Some v -> string_of_int v | None -> "⊥")
            (Dsim.Sim.now sim)));
  Dsim.Sim.run sim;
  Printf.printf "  history atomic: %s\n"
    (match Msgnet.Abd.History.check_atomic (Msgnet.Abd.History.events reg) with
    | None -> "yes"
    | Some r -> "NO — " ^ r);

  Printf.printf "\n=== 2. consensus with a heartbeat failure detector ===\n";
  let inputs = [| 7; 7; 3; 9; 9 |] in
  let r = Msgnet.Ct_consensus.run ~n:5 ~f:2 ~inputs ~crashes:[ (0, 2.0) ] () in
  Array.iteri
    (fun i d ->
      match (d, r.Msgnet.Ct_consensus.decision_times.(i)) with
      | Some v, Some t -> Printf.printf "  p%d decided %d at t=%.1f\n" i v t
      | _ -> Printf.printf "  p%d: no decision (crashed)\n" i)
    r.Msgnet.Ct_consensus.decisions;
  Printf.printf "  phases: %d, false suspicions: %d, messages: %d\n"
    r.Msgnet.Ct_consensus.phases_used r.Msgnet.Ct_consensus.false_suspicions
    r.Msgnet.Ct_consensus.messages_sent;

  Printf.printf "\n=== 3. the RRFD view of the same task, with transcript ===\n";
  let n = 4 in
  let inputs = [| 7; 3; 9; 5 |] in
  let rng = Dsim.Rng.create 99 in
  let trace =
    Rrfd.Trace.record ~n
      ~check:(Rrfd.Predicate.k_set ~k:2)
      ~pp_msg:Format.pp_print_int
      ~algorithm:(Rrfd.Kset.one_round ~inputs)
      ~detector:(Rrfd.Detector_gen.k_set rng ~n ~k:2)
      ()
  in
  Format.printf "@[<v>%a@]@." (Rrfd.Trace.pp Format.pp_print_int) trace;
  Printf.printf "2-set agreement: %s\n"
    (match
       Tasks.Agreement.check ~k:2 ~inputs
         trace.Rrfd.Trace.execution.Rrfd.Substrate.decisions
     with
    | None -> "OK"
    | Some reason -> "VIOLATED: " ^ reason)
