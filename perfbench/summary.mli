(** Order statistics and fits over benchmark samples. *)

val median : float list -> float
(** Raises [Invalid_argument] on an empty list. *)

val percentile : float list -> float -> float
(** [percentile xs q], [q] in [0, 1], by linear interpolation between
    closest ranks. *)

val slope : (float * float) list -> float
(** Least-squares slope of [y] over [x]; 0 with fewer than two distinct
    [x]. *)
