(** The result line every run ends with: one JSON object with the keys
    [correct], [attempted], [failed] and [metrics] (name -> value, unit). *)

type metric = { name : string; value : float; unit : string }

val metric : string -> string -> float -> metric

(** [json ~attempted ~failed metrics] — [correct] is [failed = 0].
    Values print with every digit ([%.17g]); a non-finite value prints as
    0 so the line stays valid JSON. *)
val json : attempted:int -> failed:int -> metric list -> string

(** Human-readable [name value unit] lines, one per metric. *)
val pp_metrics : Format.formatter -> metric list -> unit
