(** Host speed, read from a fixed reference kernel.

    The benchmark's hosts are shared: other tenants slow this one by up
    to 2x, in phases from a fraction of a second to minutes, and a phase
    longer than one benchmark run cannot be removed by repeating the
    run.  The reference kernel is a few hundred microseconds of work
    that never changes with the code under test: random read-modify-
    writes over an L2-sized table, a sequential write stream and
    binary-heap sift-ups, all outside the OCaml heap: it allocates
    nothing, and the heap a workload leaves does not change its work.
    Its time, sampled next
    to each timed step, says how fast the host runs at that moment, and
    a step's time scaled by [ref_ns /. sample] is the time the step
    would have taken at the reference speed.

    On a 2-vCPU Intel Xeon VM, the spread (interquartile range over
    median) of a workload's run time over ten seeds was, in three such
    sets, 0.035 to 0.052 scaled this way against 0.052 to 0.132 raw on
    sim-star-4k, and 0.057 to 0.093 against 0.19 to 0.34 on
    rt-fanout-1k.  A pure arithmetic loop, or a pointer chase through
    tens of megabytes, tracked the slow phases worse: the kernel has to
    load the core's caches the way the workloads do.  It does not
    follow every phase: the medians of sets run minutes apart still
    moved by up to a fifth. *)

val ref_ns : int
(** Time of one {!sample} at the reference speed, in nanoseconds. *)

val sample : unit -> int
(** Runs the kernel three times on the calling domain and returns the
    fastest, in nanoseconds: a sample hit by an interrupt or a
    preemption says nothing about the host's speed.  Each domain has
    its own buffers, so two domains sampling at once do not share cache
    lines. *)

val scale : int -> k0:int -> k1:int -> int
(** [scale ns ~k0 ~k1] is [ns] host nanoseconds at the reference speed,
    given samples [k0] just before and [k1] just after them. *)

val steps : ?calibrate:bool -> (int -> bool) -> int * int
(** [steps step] runs [step 1], [step 2], ... until one returns
    [false], sampling the kernel before the first step and after each
    one.  Returns the steps' host nanoseconds scaled step by step with
    {!scale}, and their raw host nanoseconds; kernel time is in
    neither.  With [~calibrate:false] it samples nothing, and both are
    the raw time: for runs compared with traced runs, which do not
    sample either. *)
