(** A linearizable k-set consensus object (the oracle of Theorem 3.3).

    The object accepts proposals and returns, to every caller, a value that
    was proposed no later than the call's linearization point, with at most
    [k] distinct values ever returned.  The adversary (the object's random
    stream) picks {e which} of the eligible anchor values each caller gets,
    so experiments quantify over the object's allowed behaviours rather
    than a single benign one. *)

type t

val create : ?rng:Dsim.Rng.t -> k:int -> unit -> t
(** A fresh object.  Without [rng] the object is deterministic (always
    returns the first anchor). *)

val k : t -> int

val propose : t -> int -> int
(** [propose obj v] registers [v] and returns one of the object's anchor
    values.  The first at most [k] distinct proposals become anchors;
    replies are drawn among current anchors.  Validity: the reply was
    proposed before the reply is issued.  Agreement: at most [k] distinct
    replies over the object's lifetime. *)
