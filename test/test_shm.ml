(* The shared-memory substrate: executor, atomic snapshot, immediate
   snapshot (item 5), and the Theorem 3.3 construction. *)

module Pset = Rrfd.Pset

module IntExec = Shm.Exec.Make (struct
  type t = int
end)

let exec_round_robin_interleaves () =
  let log = ref [] in
  let body ~proc =
    IntExec.write proc proc;
    log := (proc, IntExec.read ((proc + 1) mod 2)) :: !log
  in
  let outcome =
    IntExec.run ~n_procs:2 ~n_locs:2 ~schedule:Shm.Exec.Round_robin body
  in
  Alcotest.(check int) "4 steps" 4 outcome.IntExec.steps;
  (* round robin: w0 w1 r0 r1 — both reads see the other's write *)
  List.iter
    (fun (_, v) -> Alcotest.(check bool) "saw peer" true (Option.is_some v))
    !log

let exec_fixed_schedule_solo () =
  let seen = ref None in
  let body ~proc =
    IntExec.write proc (proc + 10);
    if proc = 0 then seen := IntExec.read 1
  in
  (* p0 runs completely before p1 starts: it must miss p1's write *)
  let _ =
    IntExec.run ~n_procs:2 ~n_locs:2 ~schedule:(Shm.Exec.Fixed [ 0; 0; 1 ]) body
  in
  Alcotest.(check (option int)) "p0 missed p1" None !seen

let exec_enforces_swmr () =
  let body ~proc:_ = IntExec.write 0 1 in
  Alcotest.check_raises "wrong owner"
    (Invalid_argument "Exec: p1 wrote location 0 owned by p0") (fun () ->
      ignore
        (IntExec.run ~enforce_swmr:Fun.id ~n_procs:2 ~n_locs:2
           ~schedule:Shm.Exec.Round_robin body))

module IntSnap = Shm.Snapshot.Make (struct
  type t = int
end)

let snapshot_sees_own_updates () =
  let result = ref [||] in
  let body ~proc =
    IntSnap.update ~proc (proc * 7);
    if proc = 0 then result := IntSnap.scan ()
  in
  let _ = IntSnap.run ~n:3 ~schedule:Shm.Exec.Round_robin body in
  Alcotest.(check (option int)) "own value present" (Some 0) !result.(0)

(* Linearizability witness for scans: under any interleaving, the set of
   scans returned (ordered by completion) must be monotone — each later scan
   reflects a superset of updates (values here only grow). *)
let snapshot_scans_monotone =
  QCheck.Test.make ~name:"snapshot scans are monotone under random schedules"
    ~count:300
    QCheck.(pair (int_range 2 8) (int_bound 100000))
    (fun (n, seed) ->
      let scans = ref [] in
      let body ~proc =
        IntSnap.update ~proc 1;
        scans := IntSnap.scan () :: !scans;
        IntSnap.update ~proc 2;
        scans := IntSnap.scan () :: !scans
      in
      let rng = Dsim.Rng.create seed in
      let _ = IntSnap.run ~n ~schedule:(Shm.Exec.Random rng) body in
      (* order scans by "how much they saw" — all must form a chain under
         the pointwise order (None < Some 1 < Some 2) *)
      let leq a b =
        let le x y =
          match (x, y) with
          | None, _ -> true
          | Some _, None -> false
          | Some u, Some v -> u <= v
        in
        Array.for_all2 le a b
      in
      let all = !scans in
      List.for_all
        (fun s1 -> List.for_all (fun s2 -> leq s1 s2 || leq s2 s1) all)
        all)

let immediate_snapshot_properties =
  QCheck.Test.make
    ~name:"E4: immediate snapshot satisfies self-inclusion/comparability/immediacy"
    ~count:500
    QCheck.(pair (int_range 1 10) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Dsim.Rng.create seed in
      let r =
        Shm.Immediate_snapshot.run_once ~n ~schedule:(Shm.Exec.Random rng)
      in
      match Shm.Immediate_snapshot.check_views r.Shm.Immediate_snapshot.views with
      | None -> true
      | Some reason -> QCheck.Test.fail_reportf "n=%d: %s" n reason)

(* The state-machine executor against its oracle, the textbook fiber
   implementation: identically seeded random schedules must yield the same
   views and the same step count on both paths. *)
let immediate_snapshot_matches_reference =
  QCheck.Test.make
    ~name:"immediate snapshot: run_once agrees with run_once_reference"
    ~count:300
    QCheck.(pair (int_range 1 7) (int_bound 100000))
    (fun (n, seed) ->
      let run f = f ~n ~schedule:(Shm.Exec.Random (Dsim.Rng.create seed)) in
      let fast = run Shm.Immediate_snapshot.run_once in
      let reference = run Shm.Immediate_snapshot.run_once_reference in
      let open Shm.Immediate_snapshot in
      if not (Array.for_all2 Pset.equal fast.views reference.views) then
        QCheck.Test.fail_reportf "n=%d seed=%d: views differ" n seed;
      if fast.steps <> reference.steps then
        QCheck.Test.fail_reportf "n=%d seed=%d: %d steps vs %d" n seed
          fast.steps reference.steps;
      true)

let immediate_snapshot_fault_sets_satisfy_p5 =
  QCheck.Test.make
    ~name:"E4: IIS rounds satisfy the snapshot predicate (item 5)" ~count:200
    QCheck.(triple (int_range 1 8) (int_bound 100000) (int_range 1 4))
    (fun (n, seed, rounds) ->
      let rng = Dsim.Rng.create seed in
      let h = Shm.Iis.history rng ~n ~rounds in
      match
        Rrfd.Predicate.explain (Rrfd.Predicate.snapshot ~f:(n - 1)) h
      with
      | None -> true
      | Some reason -> QCheck.Test.fail_reportf "n=%d: %s" n reason)

let solo_immediate_snapshot () =
  (* A process running alone must see exactly itself. *)
  let r =
    Shm.Immediate_snapshot.run_once ~n:3
      ~schedule:(Shm.Exec.Fixed (List.init 200 (fun _ -> 2)))
  in
  Alcotest.(check bool) "solo view is {p2}" true
    (Pset.equal r.Shm.Immediate_snapshot.views.(2) (Pset.singleton 2))

let kset_object_bounds_outputs () =
  let rng = Dsim.Rng.create 9 in
  let obj = Shm.Kset_object.create ~rng ~k:2 () in
  let outputs = List.init 50 (fun i -> Shm.Kset_object.propose obj i) in
  let distinct = List.sort_uniq compare outputs in
  Alcotest.(check bool) "≤ 2 distinct outputs" true (List.length distinct <= 2);
  List.iter
    (fun v -> Alcotest.(check bool) "validity" true (v >= 0 && v < 50))
    outputs

let thm33_construction =
  QCheck.Test.make
    ~name:"E8/Thm 3.3: construction yields k-set-predicate fault sets"
    ~count:400
    QCheck.(triple (int_range 2 10) (int_bound 100000) (int_range 1 4))
    (fun (n, seed, k_raw) ->
      let k = 1 + (k_raw mod n) in
      let rng = Dsim.Rng.create seed in
      let r =
        Shm.Thm33.one_round ~rng:(Dsim.Rng.split rng) ~n ~k
          ~schedule:(Shm.Exec.Random (Dsim.Rng.split rng))
          ()
      in
      if not r.Shm.Thm33.values_readable then
        QCheck.Test.fail_reportf "an unsuspected process's value was unreadable"
      else begin
        let h =
          Rrfd.Fault_history.of_rounds ~n [ r.Shm.Thm33.fault_sets ]
        in
        match Rrfd.Predicate.explain (Rrfd.Predicate.k_set ~k) h with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d k=%d: %s" n k reason
      end)

let tests =
  [
    Alcotest.test_case "executor round robin" `Quick exec_round_robin_interleaves;
    Alcotest.test_case "executor fixed schedule" `Quick exec_fixed_schedule_solo;
    Alcotest.test_case "executor SWMR enforcement" `Quick exec_enforces_swmr;
    Alcotest.test_case "snapshot self-visibility" `Quick snapshot_sees_own_updates;
    Alcotest.test_case "immediate snapshot solo" `Quick solo_immediate_snapshot;
    Alcotest.test_case "k-set object bounds" `Quick kset_object_bounds_outputs;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        snapshot_scans_monotone;
        immediate_snapshot_properties;
        immediate_snapshot_matches_reference;
        immediate_snapshot_fault_sets_satisfy_p5;
        thm33_construction;
      ]
