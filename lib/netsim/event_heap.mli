(** Binary min-heap of timed events with O(log n) insert / pop and O(1)
    cancellation (lazy deletion).  Ties in time are broken by insertion
    order so simulations are deterministic.

    Representation: the time keys live in a flat (unboxed) [float array]
    parallel to the payload array, so storing and sifting a key never
    boxes a float. *)

type t

type handle
(** Identifies a scheduled event for cancellation. *)

val create : unit -> t

val add : t -> time:float -> (unit -> unit) -> handle
(** Schedules a callback.  [time] may equal the current minimum. *)

val add_unit : t -> time:float -> (unit -> unit) -> unit
(** Like {!add} for fire-and-forget events: no handle is returned.
    (Event records are always freshly allocated: recycling them through
    a freelist was measured slower than minor allocation — see the
    implementation note in event_heap.ml.) *)

val add_pkt : t -> time:float -> (Packet.t -> unit) -> Packet.t -> unit
(** Fire-and-forget packet event: at [time], applies the given function
    to the packet.  With a preallocated per-link function this schedules
    a delivery without a per-packet closure. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val is_cancelled : handle -> bool

val pop : t -> (float * (unit -> unit)) option
(** Removes and returns the earliest live event, skipping cancelled ones.
    [None] when no live events remain. *)

val peek_time : t -> float option
(** Time of the earliest live event without removing it. *)

val next_time : t -> float
(** {!peek_time} without the option: the time of the earliest live
    event, or [nan] when none remain (cancelled events surfacing at the
    root are discarded).  Test with [Float.is_nan]; NaN is never a
    stored key ({!add} rejects it).  Called from another module the
    result is boxed (no flambda): one small minor-heap allocation. *)

val pop_exn : t -> unit -> unit
(** {!pop} without the option: removes the earliest live event and
    returns its callback (the corresponding time is what {!next_time}
    just returned; a packet-form event gets a wrapper closure).  Raises
    [Invalid_argument] when no live events remain. *)

type time_cell = { mutable cell_time : float }
(** All-float record (raw double storage): writes to it never box.  The
    engine keeps its clock in one. *)

val pop_fire : t -> unit
(** Removes the earliest live event and runs it — the engine's dispatch
    step, after {!next_time} gave it the event's time.  Unlike {!pop_exn}
    it builds no closure for packet-form events.  Raises
    [Invalid_argument] when no live events remain. *)

val size : t -> int
(** Number of live (non-cancelled) events. *)

val is_empty : t -> bool

val well_formed : t -> bool
(** O(n) structural audit (used by the runtime invariant checker): no
    stored key is NaN, the (time, insertion-order) min-heap property
    holds on every parent/child edge, and the live count agrees with the
    stored events.  Read-only. *)
