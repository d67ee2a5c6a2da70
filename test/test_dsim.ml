(* Tests for the discrete-event substrate: Rng, Heap, Sim. *)

module Rng = Dsim.Rng
module Heap = Dsim.Heap
module Sim = Dsim.Sim

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let w = Rng.int_in_range rng ~min:5 ~max:9 in
    Alcotest.(check bool) "range inclusive" true (w >= 5 && w <= 9);
    let f = Rng.float rng 3.0 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 3.0)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let rng_sampling () =
  let rng = Rng.create 11 in
  for _ = 1 to 100 do
    let sample = Rng.sample_without_replacement rng 5 20 in
    Alcotest.(check int) "sample size" 5 (List.length sample);
    Alcotest.(check bool) "sorted distinct" true
      (List.sort_uniq compare sample = sample);
    List.iter
      (fun v -> Alcotest.(check bool) "in universe" true (v >= 0 && v < 20))
      sample
  done;
  let all = Rng.sample_without_replacement rng 20 20 in
  Alcotest.(check int) "full sample" 20 (List.length all)

let rng_shuffle_permutes () =
  let rng = Rng.create 3 in
  let l = List.init 30 Fun.id in
  let shuffled = Rng.shuffle rng l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare shuffled)

(* Build the next [n] outputs in stream order (List.init's evaluation order
   is not something to rely on for a stateful generator). *)
let take n rng =
  let rec go acc k = if k = 0 then List.rev acc else go (Rng.int64 rng :: acc) (k - 1) in
  go [] n

let common_prefix_len a b =
  let rec go n = function
    | x :: xs, y :: ys when x = y -> go (n + 1) (xs, ys)
    | _ -> n
  in
  go 0 (a, b)

(* Split-stream independence smoke test: a child stream must diverge from
   its parent immediately — any long shared prefix would mean trials of a
   campaign see correlated randomness. *)
let rng_split_streams_independent =
  QCheck.Test.make ~name:"split child shares no prefix with parent" ~count:500
    QCheck.int (fun seed ->
      let parent = Rng.create seed in
      let child = Rng.split parent in
      common_prefix_len (take 16 parent) (take 16 child) = 0)

let rng_derived_streams_independent =
  QCheck.Test.make ~name:"derived streams pairwise diverge" ~count:200
    QCheck.(pair int (int_range 0 1000))
    (fun (seed, stream) ->
      let a = Rng.derive ~seed ~stream in
      let b = Rng.derive ~seed ~stream:(stream + 1) in
      let same_seed_again = Rng.derive ~seed ~stream in
      let sa = take 16 a in
      common_prefix_len sa (take 16 b) = 0 && sa = take 16 same_seed_again)

let rng_sample_invariants =
  QCheck.Test.make ~name:"sample_without_replacement invariants" ~count:500
    QCheck.(triple int (int_range 0 40) (int_range 0 40))
    (fun (seed, n, k) ->
      let k = min k n in
      let rng = Rng.create seed in
      let sample = Rng.sample_without_replacement rng k n in
      List.length sample = k
      && List.sort_uniq compare sample = sample
      && List.for_all (fun v -> v >= 0 && v < n) sample)

(* Pop every entry through the non-allocating pair, in heap order. *)
let drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let p = Heap.min_priority h in
      go ((p, Heap.pop_min h) :: acc)
  in
  go []

let heap_orders () =
  let h = Heap.create ~dummy:() () in
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    Heap.push h (Rng.float rng 100.0) ()
  done;
  let priorities = List.map fst (drain h) in
  Alcotest.(check int) "every entry popped" 200 (List.length priorities);
  Alcotest.(check (list (float 0.0)))
    "non-decreasing" (List.sort Float.compare priorities) priorities;
  Alcotest.(check bool) "drained" true (Heap.is_empty h);
  Alcotest.check_raises "empty pop" (Invalid_argument "Heap.pop_min: empty heap")
    (fun () -> ignore (Heap.pop_min h));
  Alcotest.check_raises "empty min"
    (Invalid_argument "Heap.min_priority: empty heap") (fun () ->
      ignore (Heap.min_priority h))

let heap_stable_ties () =
  let h = Heap.create ~dummy:0 () in
  List.iter (fun i -> Heap.push h 1.0 i) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int))
    "insertion order on ties" [ 1; 2; 3; 4 ] (List.map snd (drain h))

type heap_op = Push of float | Pop

(* Interleaved pushes and pops against a model: a list kept as the stable
   sort of the queued entries by priority, so equal priorities stay in
   insertion order.  Priorities mostly come from {0,1,2,3}, which makes
   ties frequent, with random floats in [0, 4) mixed in. *)
let heap_matches_stable_sort =
  let priority =
    QCheck.Gen.(
      frequency [ (3, map float_of_int (int_range 0 3)); (1, float_range 0.0 4.0) ])
  in
  let op =
    QCheck.Gen.(frequency [ (3, map (fun p -> Push p) priority); (2, return Pop) ])
  in
  let print ops =
    String.concat " "
      (List.map (function Push p -> Printf.sprintf "push %h" p | Pop -> "pop") ops)
  in
  QCheck.Test.make ~name:"heap pops the stable sort by (priority, insertion)"
    ~count:500
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 0 300) op))
    (fun ops ->
      let h = Heap.create ~dummy:(-1) () in
      let by_priority (a, _) (b, _) = Float.compare a b in
      let popped = ref [] and expected = ref [] in
      let model =
        List.fold_left
          (fun (model, next) op ->
            match (op, model) with
            | Push p, _ ->
              Heap.push h p next;
              (List.stable_sort by_priority (model @ [ (p, next) ]), next + 1)
            | Pop, [] -> (model, next)
            | Pop, first :: rest ->
              let p = Heap.min_priority h in
              popped := (p, Heap.pop_min h) :: !popped;
              expected := first :: !expected;
              (rest, next))
          ([], 0) ops
        |> fst
      in
      List.rev_append !popped (drain h) = List.rev_append !expected model
      && Heap.is_empty h)

(* Push a fresh block watched by a weak pointer, among other entries.
   Kept out of line so no register or stack slot of the caller holds it. *)
let[@inline never] push_watched h weak ~priority =
  let v = ref priority in
  Weak.set weak 0 (Some v);
  Heap.push h (float_of_int priority) v

let heap_releases_popped () =
  let h = Heap.create ~dummy:(ref (-1)) () in
  let weak = Weak.create 1 in
  List.iter (fun p -> Heap.push h (float_of_int p) (ref p)) [ 0; 1; 2; 4; 6; 7 ];
  push_watched h weak ~priority:3;
  List.iter (fun p -> Heap.push h (float_of_int p) (ref p)) [ 5; 8; 9 ];
  for _ = 1 to 4 do
    ignore (Sys.opaque_identity (Heap.pop_min h))
  done;
  Gc.full_major ();
  Alcotest.(check bool) "popped value collected" false (Weak.check weak 0);
  Alcotest.(check (list int))
    "rest intact" [ 4; 5; 6; 7; 8; 9 ]
    (List.map (fun (_, v) -> !v) (drain h))

let sim_runs_in_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:5.0 (fun _ -> log := 5 :: !log);
  Sim.schedule sim ~delay:1.0 (fun s ->
      log := 1 :: !log;
      Sim.schedule s ~delay:1.0 (fun _ -> log := 2 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "execution order" [ 1; 2; 5 ] (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 5.0 (Sim.now sim)

let sim_until_and_budget () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) (fun _ -> incr count)
  done;
  Sim.run ~until:4.5 sim;
  Alcotest.(check int) "until stops" 4 !count;
  Sim.run ~until:5.0 sim;
  Alcotest.(check int) "event at until runs" 5 !count;
  Sim.run ~max_events:0 sim;
  Alcotest.(check int) "zero budget runs nothing" 5 !count;
  Sim.run ~max_events:2 sim;
  Alcotest.(check int) "budget stops" 7 !count;
  Sim.run sim;
  Alcotest.(check int) "drains" 10 !count;
  Alcotest.(check int) "executed counts every event" 10 (Sim.executed sim);
  Alcotest.(check (float 0.0)) "clock at last event" 10.0 (Sim.now sim)

let sim_rejects_past () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:2.0 (fun s ->
      Alcotest.check_raises "past" (Invalid_argument "Sim.schedule_at: time is in the past")
        (fun () -> Sim.schedule_at s ~time:1.0 (fun _ -> ())));
  Sim.run sim

let tests =
  [
    Alcotest.test_case "rng determinism" `Quick rng_deterministic;
    Alcotest.test_case "rng seeds" `Quick rng_seed_sensitivity;
    Alcotest.test_case "rng bounds" `Quick rng_bounds;
    Alcotest.test_case "rng sampling" `Quick rng_sampling;
    Alcotest.test_case "rng shuffle" `Quick rng_shuffle_permutes;
    Alcotest.test_case "heap orders" `Quick heap_orders;
    Alcotest.test_case "heap stable ties" `Quick heap_stable_ties;
    Alcotest.test_case "heap releases popped values" `Quick heap_releases_popped;
    Alcotest.test_case "sim time order" `Quick sim_runs_in_time_order;
    Alcotest.test_case "sim until/budget" `Quick sim_until_and_budget;
    Alcotest.test_case "sim rejects past" `Quick sim_rejects_past;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        rng_split_streams_independent;
        rng_derived_streams_independent;
        rng_sample_invariants;
        heap_matches_stable_sort;
      ]
