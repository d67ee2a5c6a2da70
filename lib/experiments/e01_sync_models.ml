(* E1 — items 1 and 2: real synchronous executions induce exactly the
   omission / crash RRFD predicates. *)

let run ?(seed = 1) ?(trials = 200) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  let sizes = [ (4, 1); (4, 3); (8, 3); (8, 7); (16, 5); (16, 15) ] in
  List.iter
    (fun (n, f) ->
      let violations kind =
        let bad = ref 0 in
        for _ = 1 to trials do
          let trial_rng = Dsim.Rng.split rng in
          let rounds = 1 + Dsim.Rng.int trial_rng 5 in
          let pattern, predicate =
            match kind with
            | `Crash ->
              ( Syncnet.Faults.random_crash trial_rng ~n ~f ~max_round:rounds,
                Rrfd.Predicate.crash ~f )
            | `Omission ->
              ( Syncnet.Faults.random_omission trial_rng ~n ~f,
                Rrfd.Predicate.omission ~f )
          in
          let inputs = Tasks.Inputs.distinct n in
          let ex =
            Syncnet.Sync_net.run ~n ~rounds ~pattern ~stop_when_decided:false
              ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
              ()
          in
          if not (Rrfd.Predicate.holds predicate ex.induced) then incr bad
        done;
        !bad
      in
      let crash_bad = violations `Crash in
      let omission_bad = violations `Omission in
      rows :=
        [
          Table.cell_int n;
          Table.cell_int f;
          Table.cell_int trials;
          Table.cell_int crash_bad;
          Table.cell_int omission_bad;
          Table.cell_bool (crash_bad = 0 && omission_bad = 0);
        ]
        :: !rows)
    sizes;
  {
    Table.id = "E1";
    title = "synchronous systems induce the item-1/item-2 RRFD predicates";
    claim =
      "Sec. 2 items 1-2: a synchronous run with ≤f omission (resp. crash) \
       faults, read as D(i,r) = senders missed, satisfies predicate (1) \
       (resp. (1)∧(2))";
    header = [ "n"; "f"; "trials"; "crash-viol"; "omit-viol"; "ok" ];
    rows = List.rev !rows;
    notes = [];
    counters = [];
  }
