type payload = ..

type payload += Raw of int

type dst = Unicast of int | Multicast of int

type t = {
  uid : int;
  flow : int;
  size : int;
  src : int;
  dst : dst;
  payload : payload;
  created : float;
  mutable hops : int;
}

(* Atomic so packet allocation is race-free when independent engines run
   in parallel sweep domains.  Uids are process-global identifiers for
   traces and pretty-printing only — no protocol logic reads them — so
   cross-domain interleaving of the sequence is harmless. *)
let next_uid = Atomic.make 0

let fresh_uid () = Atomic.fetch_and_add next_uid 1 + 1

let ttl_limit = 64

let make ~flow ~size ~src ~dst ~created payload =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  { uid = fresh_uid (); flow; size; src; dst; payload; created; hops = 0 }

let dummy =
  {
    uid = 0;
    flow = 0;
    size = 0;
    src = 0;
    dst = Unicast (-1);
    payload = Raw (-1);
    created = 0.;
    hops = 0;
  }

let set_hops p n = p.hops <- n

(* Same uid on purpose: a corrupted packet is the same physical packet
   with mangled contents, and traces identify it by uid. *)
let with_payload p payload = { p with payload }

let clone p = { p with uid = fresh_uid () }

let pp ppf p =
  let dst =
    match p.dst with
    | Unicast n -> Printf.sprintf "n%d" n
    | Multicast g -> Printf.sprintf "g%d" g
  in
  Format.fprintf ppf "#%d flow=%d %dB n%d->%s hops=%d" p.uid p.flow p.size
    p.src dst p.hops
