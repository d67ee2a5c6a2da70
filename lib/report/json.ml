type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Writer.                                                             *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest decimal that reads back exactly; integral values drop the
   fractional part so counts stay recognisable. *)
let number_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Number v ->
    if Float.is_nan v || Float.abs v = infinity then
      Buffer.add_string buf "null"
    else Buffer.add_string buf (number_to_string v)
  | String s -> escape_string buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ", ";
        write buf x)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        escape_string buf k;
        Buffer.add_string buf ": ";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  write buf j;
  Buffer.contents buf

(* Indented rendering, two spaces per level.  Scalars and empty containers
   stay on one line; the grammar emitted is the same as [write]'s, so
   [of_string] reads both forms identically. *)
let rec write_pretty buf indent = function
  | (Null | Bool _ | Number _ | String _) as scalar -> write buf scalar
  | List [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List l ->
    let pad = String.make ((indent + 1) * 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        write_pretty buf (indent + 1) x)
      l;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (indent * 2) ' ');
    Buffer.add_char buf ']'
  | Obj fields ->
    let pad = String.make ((indent + 1) * 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        escape_string buf k;
        Buffer.add_string buf ": ";
        write_pretty buf (indent + 1) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (indent * 2) ' ');
    Buffer.add_char buf '}'

let to_string_pretty j =
  let buf = Buffer.create 1024 in
  write_pretty buf 0 j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over the raw bytes.                       *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let fail st fmt =
  Printf.ksprintf (fun s -> error "json parse error at byte %d: %s" st.pos s) fmt

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail st "expected %c, found %c" c d
  | None -> fail st "expected %c, found end of input" c

let literal st word value =
  if
    st.pos + String.length word <= String.length st.src
    && String.sub st.src st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else fail st "invalid literal (expected %s)" word

(* Encode a Unicode code point as UTF-8 into the buffer. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'; advance st
      | Some '\\' -> Buffer.add_char buf '\\'; advance st
      | Some '/' -> Buffer.add_char buf '/'; advance st
      | Some 'n' -> Buffer.add_char buf '\n'; advance st
      | Some 'r' -> Buffer.add_char buf '\r'; advance st
      | Some 't' -> Buffer.add_char buf '\t'; advance st
      | Some 'b' -> Buffer.add_char buf '\b'; advance st
      | Some 'f' -> Buffer.add_char buf '\012'; advance st
      | Some 'u' ->
        advance st;
        if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
        let hex = String.sub st.src st.pos 4 in
        let cp =
          try int_of_string ("0x" ^ hex)
          with _ -> fail st "bad \\u escape %S" hex
        in
        st.pos <- st.pos + 4;
        add_utf8 buf cp
      | Some c -> fail st "bad escape \\%c" c
      | None -> fail st "unterminated escape");
      loop ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_number_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_number_char c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  try Number (float_of_string s) with _ -> fail st "bad number %S" s

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (k, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ()
        | Some '}' -> advance st
        | _ -> fail st "expected , or } in object"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements ()
        | Some ']' -> advance st
        | _ -> fail st "expected , or ] in array"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st "unexpected character %C" c

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Number _ -> "number"
  | String _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let member k = function
  | Obj fields -> ( match List.assoc_opt k fields with Some v -> v | None -> Null)
  | j -> error "json: member %S of non-object (%s)" k (type_name j)

let mem k = function Obj fields -> List.mem_assoc k fields | _ -> false

let str = function
  | String s -> s
  | j -> error "json: expected string, found %s" (type_name j)

let num = function
  | Number v -> v
  | Null -> nan
  | j -> error "json: expected number, found %s" (type_name j)

let int = function
  | Number v when Float.is_integer v -> int_of_float v
  | j -> error "json: expected integer, found %s" (type_name j)

let int_in ~lo ~hi key obj =
  let v = int (member key obj) in
  if v < lo || v > hi then
    error "json: %s = %d is outside %d..%d" key v lo hi;
  v

let sized ~n key a =
  if Array.length a <> n then
    error "json: %s has %d entries, expected %d" key (Array.length a) n;
  a

let bool = function
  | Bool b -> b
  | j -> error "json: expected bool, found %s" (type_name j)

let list = function
  | List l -> l
  | j -> error "json: expected array, found %s" (type_name j)

let obj = function
  | Obj fields -> fields
  | j -> error "json: expected object, found %s" (type_name j)
