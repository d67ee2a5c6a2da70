(* The asynchronous message-passing substrate and the item-3 round layer. *)

module Pset = Rrfd.Pset

let network_delivers_everything () =
  let sim = Dsim.Sim.create ~seed:1 () in
  let got = ref [] in
  let deliver _ ~to_ ~from msg = got := (to_, from, msg) :: !got in
  let net = Msgnet.Network.create ~sim ~n:3 ~deliver () in
  Msgnet.Network.broadcast net ~from:0 "hello";
  Msgnet.Network.send net ~from:1 ~to_:2 "direct";
  Dsim.Sim.run sim;
  Alcotest.(check int) "4 deliveries" 4 (List.length !got);
  Alcotest.(check int) "sent counter" 4 (Msgnet.Network.messages_sent net);
  Alcotest.(check int) "delivered counter" 4 (Msgnet.Network.messages_delivered net)

let network_respects_crashes () =
  let sim = Dsim.Sim.create ~seed:1 () in
  let got = ref 0 in
  let deliver _ ~to_:_ ~from:_ _ = incr got in
  let net = Msgnet.Network.create ~sim ~n:3 ~deliver () in
  Msgnet.Network.crash net 0;
  Msgnet.Network.broadcast net ~from:0 "lost";
  Msgnet.Network.broadcast net ~from:1 "partial";
  Dsim.Sim.run sim;
  (* p1's copies to p0 are dropped at delivery time (p0 crashed). *)
  Alcotest.(check int) "only live receivers of live sender" 2 !got

let network_delay_order_can_invert () =
  (* With a wide delay window, a later send may arrive earlier. *)
  let sim = Dsim.Sim.create ~seed:3 () in
  let log = ref [] in
  let deliver _ ~to_:_ ~from:_ msg = log := msg :: !log in
  let net = Msgnet.Network.create ~sim ~n:2 ~min_delay:1.0 ~max_delay:50.0 ~deliver () in
  for i = 0 to 19 do
    Msgnet.Network.send net ~from:0 ~to_:1 i
  done;
  Dsim.Sim.run sim;
  let arrival = List.rev !log in
  Alcotest.(check bool) "not FIFO" true (arrival <> List.sort compare arrival)

let round_layer_completes_and_satisfies_p3 =
  QCheck.Test.make
    ~name:"E2: round layer induces predicate-3 histories and all live finish"
    ~count:200
    QCheck.(triple (int_range 2 10) (int_bound 100000) (int_range 1 5))
    (fun (n, seed, rounds) ->
      let rng = Dsim.Rng.create seed in
      let f = Dsim.Rng.int rng n in
      let crash_count = Dsim.Rng.int rng (f + 1) in
      let crashes =
        Dsim.Rng.sample_without_replacement rng crash_count n
        |> List.map (fun p -> (p, Dsim.Rng.float rng 30.0))
      in
      let inputs = Array.init n Fun.id in
      let result =
        Msgnet.Round_layer.run ~seed ~crashes ~n ~f ~rounds
          ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
          ()
      in
      let live_ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun i completed ->
               Pset.mem i result.Msgnet.Round_layer.execution.crashed
               || completed = rounds)
             result.Msgnet.Round_layer.execution.completed)
      in
      if not live_ok then QCheck.Test.fail_reportf "a live process stalled"
      else
        match
          Rrfd.Predicate.explain
            (Rrfd.Predicate.async_resilient ~f)
            result.Msgnet.Round_layer.execution.induced
        with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d f=%d: %s" n f reason)

let round_layer_full_information_recreates_missed_rounds =
  (* Item 3, "A implements N": running full-information, a process that
     receives p_j's round-r view can recreate every earlier message of p_j
     it missed: the view contains p_j's value for all earlier rounds. *)
  QCheck.Test.make ~name:"item 3: full information recreates missed messages"
    ~count:100
    QCheck.(pair (int_range 3 8) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Dsim.Rng.create seed in
      let f = 1 + Dsim.Rng.int rng (n - 1) in
      let inputs = Array.init n (fun i -> i * 11) in
      let result =
        Msgnet.Round_layer.run ~seed ~n ~f ~rounds:3
          ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
          ()
      in
      (* Every completed process's final view knows the input of every
         process it ever heard from, directly or transitively. *)
      let ok = ref true in
      Array.iteri
        (fun i completed ->
          if completed = 3 then begin
            let view_opt = result.Msgnet.Round_layer.execution.decisions.(i) in
            match view_opt with
            | None -> ok := false
            | Some view ->
              let heard = Rrfd.Full_info.heard_from_last_round view in
              Pset.iter
                (fun j ->
                  if not (Rrfd.Full_info.knows_input_of view j) then ok := false)
                heard
          end)
        result.Msgnet.Round_layer.execution.completed;
      !ok)

let tests =
  [
    Alcotest.test_case "network delivers" `Quick network_delivers_everything;
    Alcotest.test_case "network crashes" `Quick network_respects_crashes;
    Alcotest.test_case "network reorders" `Quick network_delay_order_can_invert;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        round_layer_completes_and_satisfies_p3;
        round_layer_full_information_recreates_missed_rounds;
      ]
