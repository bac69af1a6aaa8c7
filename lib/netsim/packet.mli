(** Network packets.

    The payload is an extensible variant: each protocol library adds its
    own constructors (TCP segments, TFMCC data/feedback, ...), keeping the
    simulator core protocol-agnostic.

    Packets are plain GC-managed records built by {!make}; a handler may
    keep one as long as it likes.  Every multicast copy is its own
    record ({!clone}), so the link layer's [hops] count is per copy. *)

type payload = ..
(** Protocol payloads.  Extended by [Tcp], [Tfrc] and [Tfmcc]. *)

type payload += Raw of int  (** Opaque filler traffic with a tag. *)

type dst =
  | Unicast of int  (** destination node id *)
  | Multicast of int  (** multicast group id *)

type t = private {
  uid : int;  (** globally unique per packet copy *)
  flow : int;  (** accounting tag; monitors aggregate by flow *)
  size : int;  (** bytes on the wire, headers included *)
  src : int;  (** originating node id *)
  dst : dst;
  payload : payload;
  created : float;  (** send time at the origin *)
  mutable hops : int;  (** incremented per link traversal; TTL guard *)
}
(** The type is private: all construction goes through {!make}, and only
    [hops] is written after construction (by the link layer). *)

val make :
  flow:int -> size:int -> src:int -> dst:dst -> created:float -> payload -> t
(** Allocates a packet with a fresh uid.  [size] must be positive. *)

val clone : t -> t
(** A copy with a fresh uid (multicast duplication at branch points). *)

val set_hops : t -> int -> unit
(** Link-layer TTL accounting ([hops] is the only field callers mutate). *)

val with_payload : t -> payload -> t
(** A copy with the given payload and the {e same} uid — the "same
    physical packet, mangled contents" operation used by fault injectors
    and wire-level corruption. *)

val ttl_limit : int
(** Packets are dropped after this many hops (routing-loop guard). *)

val dummy : t
(** Sentinel for empty data-structure slots (e.g. queue rings). *)

val pp : Format.formatter -> t -> unit
