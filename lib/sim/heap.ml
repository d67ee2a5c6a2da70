type 'a entry = { priority : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let length h = h.size

let is_empty h = h.size = 0

let entry_lt a b =
  a.priority < b.priority || (a.priority = b.priority && a.seq < b.seq)

let grow h =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let dummy = h.data.(0) in
    let data = Array.make (max 8 (2 * capacity)) dummy in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt h.data.(i) h.data.(parent) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < h.size && entry_lt h.data.(l) h.data.(i) then l else i in
  let smallest = if r < h.size && entry_lt h.data.(r) h.data.(smallest) then r else smallest in
  if smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(smallest);
    h.data.(smallest) <- tmp;
    sift_down h smallest
  end

let push h priority value =
  let entry = { priority; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  if Array.length h.data = 0 then h.data <- Array.make 8 entry;
  grow h;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h =
  if h.size = 0 then None
  else
    let e = h.data.(0) in
    Some (e.priority, e.value)

let pop h =
  if h.size = 0 then None
  else begin
    let e = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some (e.priority, e.value)
  end
