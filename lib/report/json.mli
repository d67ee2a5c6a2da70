(** A minimal JSON tree, writer and parser.

    The BENCH telemetry needs structured output and the container bakes in
    no JSON library, so this is a small hand-rolled implementation: enough
    of RFC 8259 to round-trip every report this repo writes.  Numbers are
    carried as [float] (the only number type JSON has); non-finite floats
    are written as [null] and read back as [nan]. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Error of string
(** Raised by the parser on malformed input (with byte position) and by
    the accessors on type mismatch. *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace except after [,] and
    [:]).  Strings are escaped per RFC 8259; non-ASCII bytes pass through
    untouched, so UTF-8 input stays UTF-8.  Non-finite numbers render as
    [null]. *)

val to_string_pretty : t -> string
(** Indented rendering (two spaces per level) for artifacts meant to be
    read by humans — the model checker's counterexample files.  Parses back
    identically to {!to_string} output. *)

val of_string : string -> t
(** Parse a complete JSON document.
    @raise Error on malformed input or trailing garbage. *)

(** {1 Accessors} — all raise {!Error} with the offending shape. *)

val member : string -> t -> t
(** Field of an [Obj]; [Null] when the field is absent. *)

val mem : string -> t -> bool

val str : t -> string

val num : t -> float
(** Of a [Number]; [nan] for [Null] (the writer's encoding of non-finite
    floats). *)

val int : t -> int

val int_in : lo:int -> hi:int -> string -> t -> int
(** [int_in ~lo ~hi key obj] is the integer field [key] of [obj], which
    must lie in [\[lo, hi\]] — how artifact decoders refuse well-formed
    files whose sizes the replay would reject. *)

val sized : n:int -> string -> 'a array -> 'a array
(** [sized ~n key a] is [a] when it has exactly [n] entries — one per
    process — and raises {!Error} naming [key] otherwise. *)

val bool : t -> bool

val list : t -> t list

val obj : t -> (string * t) list
