type t = {
  mutable clock : float;
  queue : (t -> unit) Heap.t;
  random : Rng.t;
  mutable executed : int;
}

let create ?(seed = 0) () =
  {
    clock = 0.0;
    queue = Heap.create ~dummy:ignore ();
    random = Rng.create seed;
    executed = 0;
  }

let now sim = sim.clock

let rng sim = sim.random

let check_time what time =
  if not (Float.is_finite time) then invalid_arg (what ^ ": time must be finite")

let schedule_at sim ~time f =
  check_time "Sim.schedule_at" time;
  if time < sim.clock then invalid_arg "Sim.schedule_at: time is in the past";
  Heap.push sim.queue time f

let schedule sim ~delay f =
  if Float.is_nan delay || delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at sim ~time:(sim.clock +. delay) f

let pending sim = Heap.length sim.queue

(* One loop over the queue's non-allocating pair: read the earliest time,
   then pop its event.  [until] and [max_events] are read once per call;
   an absent [until] is an infinite horizon, which every finite event
   time is within. *)
let run ?until ?max_events sim =
  let queue = sim.queue in
  let horizon = match until with None -> infinity | Some h -> h in
  let budget = match max_events with None -> max_int | Some m -> m in
  let start = sim.executed in
  let running = ref true in
  while !running do
    if Heap.is_empty queue || sim.executed - start >= budget then running := false
    else begin
      let time = Heap.min_priority queue in
      if time <= horizon then begin
        let f = Heap.pop_min queue in
        sim.clock <- time;
        sim.executed <- sim.executed + 1;
        f sim
      end
      else running := false
    end
  done

let executed sim = sim.executed
