(** Judging one framed [uniqsql serve] reply against its request's
    hand-written expected verdict. *)

type outcome =
  | Correct
  | Wrong of string  (** the reply body that did not match *)
  | Overloaded  (** refused by admission control *)
  | Missing  (** no reply arrived *)

(** [judge ~expected reply] — [reply] is the reply block with its
    ["[n] "] label (as the server sends it), [None] when none arrived.
    [expected] is a prefix the unlabelled body must start with, e.g.
    ["unique(alg1)=true unique(fd)=true"] or ["parse error: "]. *)
val judge : expected:string -> string option -> outcome

(** Every outcome other than [Correct] is a failed operation. *)
val failed : outcome -> bool
