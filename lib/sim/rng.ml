(* Splitmix64.  The state lives in an 8-byte [Bytes] rather than a
   [mutable int64] record field: int64 record fields are boxed, so every
   state advance would allocate a fresh box — ~6 minor words per draw on
   the hot path.  The bytes get/set primitives compile to raw 64-bit
   loads and stores, and with the [@inline] hints below the whole draw
   pipeline stays unboxed in native code.  The generated stream is
   bit-identical to the record representation. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] get_state (t : t) = Bytes.get_int64_le t 0

let[@inline] set_state (t : t) v = Bytes.set_int64_le t 0 v

let[@inline always] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state v =
  let t = Bytes.create 8 in
  set_state t v;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let derive_seed seed stream =
  let z =
    Int64.logxor
      (mix64 (Int64.of_int seed))
      (Int64.mul golden_gamma (Int64.of_int (stream + 1)))
  in
  Int64.to_int (mix64 z)

let derive ~seed ~stream = create (derive_seed seed stream)

let copy t = Bytes.copy t

let[@inline] next_state t =
  let s = Int64.add (get_state t) golden_gamma in
  set_state t s;
  s

let[@inline] int64 t = mix64 (next_state t)

let split t = of_state (mix64 (int64 t))

let[@inline] bits30 t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound <= 1 lsl 30 then begin
    (* Rejection sampling over 30 random bits avoids modulo bias.  A
       while loop rather than a local rec function: the latter costs a
       closure allocation per call on the non-flambda compiler. *)
    let v = ref (-1) in
    while !v < 0 do
      let r = bits30 t in
      let m = r mod bound in
      if r - m + (bound - 1) >= 0 then v := m
    done;
    !v
  end else
    let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    r mod bound

let int_in_range t ~min ~max =
  if max < min then invalid_arg "Rng.int_in_range: max < min";
  min + int t (max - min + 1)

(* Same single draw as before; the comparison is on native ints so the
   hot path never calls the boxed-int64 structural equality. *)
let bool t = Int64.to_int (int64 t) land 1 = 1

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (r /. 9007199254740992.0)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t l =
  let a = Array.of_list l in
  shuffle_in_place t a;
  Array.to_list a

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | l -> List.nth l (int t (List.length l))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Reservoir-free selection sampling (Knuth algorithm S): O(n). *)
  let rec go i remaining acc =
    if remaining = 0 then List.rev acc
    else if n - i = remaining then List.rev_append acc (List.init remaining (fun j -> i + j))
    else if int t (n - i) < remaining then go (i + 1) (remaining - 1) (i :: acc)
    else go (i + 1) remaining acc
  in
  go 0 k []
