(** Sample summaries under the benchmark's reporting rule: a percentile
    is reported only when at least {!min_beyond} samples lie beyond it,
    so a tail figure always rests on more than a handful of samples. *)

val min_beyond : int

(** [percentile samples p] — the nearest-rank [p]-quantile ([0 < p < 1])
    of [samples]: the value of rank [k = ceil (p * n)] in ascending order.
    [None] when fewer than {!min_beyond} samples rank above [k]
    ([n - k < min_beyond]). [samples] need not be sorted. *)
val percentile : float array -> float -> float option

(** Median of any non-empty sample, with no sample-count rule — for
    repeated measurements of one quantity (set-up times, one template's
    drain times), where no tail is being claimed. @raise Invalid_argument on []. *)
val middle : float array -> float

(** [windowed ~unit samples p] — [p]-quantile of a run whose speed may
    drift: [samples], in the order they were taken, are cut into windows
    of whole [unit]s of consecutive samples (a round of a query mix, say),
    each window the fewest units that back [percentile _ p]; the last
    window also takes the samples left over. The result is the mean of
    the windows' percentiles, so a host that runs fast for part of a run
    and slow for the rest moves it in proportion to the parts, where a
    percentile of the pooled samples would jump between the two speeds.
    [None] when [samples] cannot fill one window.
    @raise Invalid_argument unless [unit >= 1] and [0 < p < 1]. *)
val windowed : unit:int -> float array -> float -> float option
