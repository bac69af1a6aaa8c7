(** In-memory span recorder for the benchmark's traced runs.

    A span is one timed call into a layer: a name, a start, an end and
    the span that was open when it began (its parent).  Spans nest on a
    single stack, so a span's {e self time} is its duration minus the
    durations of its direct children — time spent in the layer itself,
    not in the layers it called.  The recorder aggregates calls and self
    nanoseconds per name.

    One recorder belongs to one domain; it is not thread-safe. *)

type t

val create : string array -> t
(** [create names] records spans whose names are the indices of
    [names]. *)

val now_ns : unit -> int
(** The monotonic clock every span is read from, in nanoseconds. *)

val enter : t -> int -> unit
(** Opens a span of name index [i] at {!now_ns}. *)

val exit : t -> unit
(** Closes the innermost open span at {!now_ns}. *)

val enter_at : t -> int -> ns:int -> unit
val exit_at : t -> ns:int -> unit
(** {!enter} and {!exit} with an explicit timestamp. *)

val names : t -> string array
(** The name of each index, as given to {!create}. *)

val depth : t -> int
(** Spans currently open. *)

val calls : t -> int -> int
val self_ns : t -> int -> int
(** Aggregates over the completed spans of one name index. *)

val self_sum_ns : t -> int
(** Sum of self times over every name: equals the summed durations of
    the completed root spans. *)
