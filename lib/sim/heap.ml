(* Structure of arrays.  Heap position [i] holds the entry
   ([keys.(i)], [seqs.(i)], [slots.(i)]); its value lives in
   [values.(slots.(i))] and stays there while sifts move the entry, so
   sifts move only unboxed floats and ints, never a pointer through the
   write barrier.  [slots] is a permutation of the payload indices: its
   first [size] positions name the occupied payload slots, the rest the
   free ones, so a push takes its slot from [slots.(size)] and a pop
   returns its slot to the position it vacates.  Free payload slots hold
   [dummy], never a popped value, so the heap keeps nothing alive that it
   no longer queues.  Once the arrays have grown to the queue's depth, a
   push or pop allocates nothing. *)
type 'a t = {
  mutable keys : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ~dummy () =
  {
    keys = Float.Array.create 0;
    seqs = [||];
    slots = [||];
    values = [||];
    size = 0;
    next_seq = 0;
    dummy;
  }

let length h = h.size

let is_empty h = h.size = 0

(* Called when every payload slot is occupied: the new slots are free. *)
let grow h =
  let capacity = max 8 (2 * h.size) in
  let keys = Float.Array.create capacity in
  Float.Array.blit h.keys 0 keys 0 h.size;
  let seqs = Array.make capacity 0 in
  Array.blit h.seqs 0 seqs 0 h.size;
  let slots = Array.init capacity Fun.id in
  Array.blit h.slots 0 slots 0 h.size;
  let values = Array.make capacity h.dummy in
  Array.blit h.values 0 values 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.slots <- slots;
  h.values <- values

(* Every index below is < [Array.length h.values], the common length of
   the four arrays, so the accesses are unchecked. *)
let[@inline] move h ~src ~dst =
  Float.Array.unsafe_set h.keys dst (Float.Array.unsafe_get h.keys src);
  Array.unsafe_set h.seqs dst (Array.unsafe_get h.seqs src);
  Array.unsafe_set h.slots dst (Array.unsafe_get h.slots src)

let[@inline] place h i key seq slot =
  Float.Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.slots i slot

(* The heap order: key first, then insertion sequence number, which is
   read only on equal keys.  [earlier h i key seq] is whether position [i]
   comes before the entry ([key], [seq]). *)
let[@inline] earlier h i (key : float) seq =
  let k = Float.Array.unsafe_get h.keys i in
  k < key || (k = key && Array.unsafe_get h.seqs i < seq)

let push h key v =
  if h.size = Array.length h.values then grow h;
  let slot = Array.unsafe_get h.slots h.size in
  Array.unsafe_set h.values slot v;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  (* Sift up by moving parents down into the hole.  The new entry's
     sequence number exceeds every queued one, so it passes a parent only
     on a strictly smaller key: equal keys keep insertion order. *)
  let hole = ref h.size and sifting = ref true in
  while !sifting && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    if key < Float.Array.unsafe_get h.keys parent then begin
      move h ~src:parent ~dst:!hole;
      hole := parent
    end
    else sifting := false
  done;
  place h !hole key seq slot;
  h.size <- h.size + 1

let[@inline] min_priority h =
  if h.size = 0 then invalid_arg "Heap.min_priority: empty heap";
  Float.Array.unsafe_get h.keys 0

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let top_slot = Array.unsafe_get h.slots 0 in
  let top = Array.unsafe_get h.values top_slot in
  Array.unsafe_set h.values top_slot h.dummy;
  let last = h.size - 1 in
  h.size <- last;
  let key = Float.Array.unsafe_get h.keys last
  and seq = Array.unsafe_get h.seqs last
  and slot = Array.unsafe_get h.slots last in
  if last > 0 then begin
    (* Sift the former last entry down from the root's hole, moving the
       smaller child up until the entry fits. *)
    let hole = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !hole) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && earlier h r (Float.Array.unsafe_get h.keys l) (Array.unsafe_get h.seqs l)
          then r
          else l
        in
        if earlier h c key seq then begin
          move h ~src:c ~dst:!hole;
          hole := c
        end
        else sifting := false
      end
    done;
    place h !hole key seq slot
  end;
  Array.unsafe_set h.slots last top_slot;
  top
