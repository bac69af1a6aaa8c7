(** Timer queue of the real-time loop: a binary min-heap keyed on
    (deadline, insertion seq).

    Same layout and ordering contract as the simulator's
    [Netsim.Event_heap], without its packet and batch machinery:
    deadlines live in a flat float array beside the entry array, sifts
    move a hole, ties break by insertion sequence, and cancellation is
    lazy (a flag; the entry is discarded when it surfaces) with an O(1)
    live count.  Schedule and pop are O(log n); {!next_due} is O(1)
    amortized.

    Determinism: callbacks fire in (deadline, seq) order, so two runs
    that schedule identically fire identically, which the
    time-translation property test and the turbo (virtual-time) loop
    mode rely on. *)

type t

type timer
(** Handle for {!cancel}. *)

val create : unit -> t

val schedule : t -> at:float -> (unit -> unit) -> timer
(** Deadlines earlier than the last {!advance} fire on the next one.
    @raise Invalid_argument on a NaN deadline. *)

val cancel : t -> timer -> unit
(** Idempotent; cancelling an already-fired timer is a no-op.  A timer
    cancelled by an earlier callback of the same {!advance} does not
    fire. *)

val next_due : t -> float option
(** Earliest pending (non-cancelled) deadline, or [None] when no timer
    is pending.  The turbo loop jumps the virtual clock here; the
    realtime loop sleeps until it. *)

val advance : t -> now:float -> ?late:(float -> unit) -> unit -> int
(** Fires every pending callback with deadline <= [now], in (deadline,
    seq) order.  Callbacks may schedule or cancel timers freely; a newly
    scheduled timer already due fires within the same advance, at its
    place in that order (zero-delay chains must be finite — TFMCC's
    timers are paced, and a runaway chain fails loudly rather than
    hanging).  [late] is called with [now - deadline] for each fired
    timer, letting the loop count real-clock tardiness.  Each timer
    leaves the heap before its callback runs, so an exception escaping
    one callback propagates with its due siblings still pending.
    Returns the number of callbacks fired. *)

val pending : t -> int
(** Live (scheduled, not yet fired or cancelled) timers.  O(1). *)

val fired : t -> int
(** Total callbacks fired over the heap's lifetime. *)
