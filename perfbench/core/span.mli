(** In-memory trace spans recorded around calls into the system's layers.

    A span is a name (the metric prefix of the layer it times), its start
    and end on the monotonic clock, the span it ran inside, and the id of
    the query or request it belongs to. Spans accumulate in memory and
    are only read once the run ends. *)

type span = {
  id : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int option;  (** [id] of the enclosing span *)
  request : int;
}

type recorder

val create : unit -> recorder

(** [record r ~name ~request f] — run [f] inside a new span, a child of
    the innermost span still open on [r]. The span is closed (and kept)
    even when [f] raises. *)
val record : recorder -> name:string -> request:int -> (unit -> 'a) -> 'a

(** Completed spans in order of completion. *)
val spans : recorder -> span list

val duration_ns : span -> int64

(** [self_ns ~children s] — [s]'s duration minus the part of its interval
    covered by [children] (the union of their intervals, clipped to [s];
    overlapping children count once). *)
val self_ns : children:span list -> span -> int64

(** Every span paired with its self time, in the order of {!spans}. *)
val self_times : span list -> (span * int64) list
