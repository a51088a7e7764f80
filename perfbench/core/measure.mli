(** Clock, allocation and memory readings.

    Times come from the monotonic clock ([CLOCK_MONOTONIC] via
    [bechamel.monotonic_clock]), which never steps the way
    [Unix.gettimeofday] can. Allocation comes from [Gc.minor_words] and
    [Gc.counters], which are exact at any span length; [Gc.quick_stat]'s
    [minor_words] is only refreshed at minor collections on OCaml 5 and
    reads 0 for short spans. *)

(** Nanoseconds since an arbitrary fixed origin. *)
val now_ns : unit -> int64

(** Seconds since the same origin. *)
val now_s : unit -> float

(** [ns_to_ms d] — a nanosecond duration in milliseconds. *)
val ns_to_ms : int64 -> float

(** Words allocated by this domain so far: minor words plus words
    allocated directly in the major heap (major minus promoted). *)
val words_allocated : unit -> float

(** Minor and major collections so far. *)
val collections : unit -> int * int

(** Peak resident set ([VmHWM] in [/proc/<pid>/status]) in MiB of
    process [pid] (default: this one), or [None] when it cannot be read. *)
val hwm_mb : ?pid:string -> unit -> float option

(** Reset this process's [VmHWM] to its current resident set (by writing
    [5] to [/proc/self/clear_refs]), so that a later {!hwm_mb} covers only
    what came after. False when the kernel refuses. *)
val reset_hwm : unit -> bool
