(* Section 4 end to end: asynchronous systems simulate synchronous ones,
   and asynchronous impossibility becomes a synchronous lower bound.

   1. We run a synchronous flooding algorithm *unchanged* inside an
      asynchronous snapshot system with k failures and watch the induced
      history stay inside the synchronous omission predicate (Thm 4.1).
   2. We run the crash-fault version: three asynchronous rounds per
      simulated synchronous round via parallel adopt-commits (Thm 4.3).
   3. We replay the lower-bound story (Cor 4.2/4.4): the chain adversary
      defeats any ⌊f/k⌋-round flooding, and one extra round restores
      agreement.

     dune exec examples/sync_vs_async.exe *)

let section title = Printf.printf "\n--- %s ---\n" title

let () =
  let rng = Dsim.Rng.create 7 in

  section "Theorem 4.1: async-with-k-failures runs sync omission rounds";
  let n = 8 and f = 4 and k = 2 in
  let inputs = Tasks.Inputs.distinct n in
  let result =
    Rrfd.Sim_omission.simulate ~n ~f ~k
      ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
      ~detector:(Rrfd.Detector_gen.iis rng ~n ~f:k)
      ()
  in
  Printf.printf "simulated %d rounds (⌊f/k⌋ = ⌊%d/%d⌋)\n"
    result.Rrfd.Sim_omission.execution.Rrfd.Substrate.rounds_used f k;
  Printf.printf "omission predicate on the induced history: %s\n"
    (match result.Rrfd.Sim_omission.omission_violation with
    | None -> "holds"
    | Some reason -> "VIOLATED: " ^ reason);

  section "Theorem 4.3: crash faults via adopt-commit (3 async rounds each)";
  let sync_rounds = 3 in
  let sync = Syncnet.Flood.min_flood ~inputs ~horizon:sync_rounds in
  let algorithm = Rrfd.Sim_crash.algorithm ~sync in
  let states, _ =
    Rrfd.Engine.states_after ~n
      ~rounds:(Rrfd.Sim_crash.async_rounds ~sync_rounds)
      ~algorithm
      ~detector:(Rrfd.Detector_gen.iis rng ~n ~f:1)
      ()
  in
  let history = Rrfd.Sim_crash.simulated_history states in
  Printf.printf "asynchronous rounds used: %d for %d simulated rounds\n"
    (Rrfd.Sim_crash.async_rounds ~sync_rounds)
    sync_rounds;
  Printf.printf "simulated crash faults: %d\n"
    (Rrfd.Pset.cardinal (Rrfd.Fault_history.cumulative_union history));
  Printf.printf "crash-history check: %s\n"
    (match Rrfd.Sim_crash.check_simulated ~f:sync_rounds ~k:1 states with
    | None -> "holds"
    | Some reason -> "VIOLATED: " ^ reason);

  section "Corollary 4.2/4.4: the ⌊f/k⌋ + 1 round lower bound";
  let k = 2 and chain_rounds = 3 in
  let f = k * chain_rounds in
  let n = Adversary.Lower_bound.required_processes ~k ~rounds:chain_rounds in
  Printf.printf "n = %d, k = %d, f = %d: bound is ⌊f/k⌋+1 = %d rounds\n" n k f
    ((f / k) + 1);
  for horizon = 1 to (f / k) + 1 do
    let adv = Adversary.Lower_bound.build ~n ~k ~rounds:chain_rounds in
    let pattern = Syncnet.Faults.crash ~n adv.Adversary.Lower_bound.crash_specs in
    let result =
      Syncnet.Sync_net.run ~n ~rounds:horizon ~pattern
        ~algorithm:
          (Syncnet.Flood.min_flood ~inputs:adv.Adversary.Lower_bound.inputs
             ~horizon)
        ()
    in
    let live_decisions =
      Array.mapi
        (fun i d ->
          if Rrfd.Pset.mem i result.Rrfd.Substrate.crashed then None else d)
        result.Rrfd.Substrate.decisions
    in
    let distinct = Tasks.Agreement.distinct_decisions ~decisions:live_decisions in
    Printf.printf "  horizon %d: %d distinct decisions %s\n" horizon distinct
      (if distinct > k then "(agreement broken — below the bound)"
       else "(k-set agreement holds)")
  done
