type Netsim.Packet.payload +=
  | Nak of { session : int; rx_id : int; missing : int list }

let nak_size = 64

module Int_set = Set.Make (Int)

module Sender = struct
  type t = {
    n : int;
    mutable next_fresh : int;
    mutable repair : int Queue.t;
    mutable queued : Int_set.t;
    mutable repairs : int;
    mutable naks : int;
  }

  let blocks t = t.n

  let first_pass_done t = t.next_fresh >= t.n

  let repair_queue_length t = Queue.length t.repair

  let repairs_sent t = t.repairs

  let naks_received t = t.naks

  let next_block t () =
    match Queue.take_opt t.repair with
    | Some b ->
        t.queued <- Int_set.remove b t.queued;
        t.repairs <- t.repairs + 1;
        b
    | None ->
        if t.next_fresh < t.n then begin
          let b = t.next_fresh in
          t.next_fresh <- t.next_fresh + 1;
          b
        end
        else -1

  let on_nak t missing =
    t.naks <- t.naks + 1;
    List.iter
      (fun b ->
        if b >= 0 && b < t.n && not (Int_set.mem b t.queued) then begin
          t.queued <- Int_set.add b t.queued;
          Queue.push b t.repair
        end)
      missing

  let create tfmcc ~node ~session ~blocks =
    if blocks <= 0 then invalid_arg "Repair.Sender.create: blocks must be positive";
    let t =
      {
        n = blocks;
        next_fresh = 0;
        repair = Queue.create ();
        queued = Int_set.empty;
        repairs = 0;
        naks = 0;
      }
    in
    Tfmcc_core.Sender.set_block_source tfmcc (next_block t);
    Netsim.Node.attach node (fun p ->
        match p.Netsim.Packet.payload with
        | Nak { session = s; rx_id = _; missing } when s = session ->
            on_nak t missing
        | _ -> ());
    t
end

module Receiver = struct
  type t = {
    topo : Netsim.Topology.t;
    engine : Netsim.Engine.t;
    session : int;
    node_id : int;
    sender_id : int;
    n : int;
    nak_interval : float;
    max_nak_ids : int;
    rng : Stats.Rng.t;
    got : Bytes.t;  (* one byte per block; dense and simple *)
    mutable count : int;
    mutable max_seen : int;
    mutable last_progress : float;
    mutable last_nak : float;
    mutable naks : int;
    mutable done_at : float option;
    mutable timer : Netsim.Engine.handle option;
  }

  let received_blocks t = t.count

  let complete t = t.count >= t.n

  let completion_time t = t.done_at

  let naks_sent t = t.naks

  let missing t =
    let rec collect i acc =
      if i < 0 then acc
      else collect (i - 1) (if Bytes.get t.got i = '\000' then i :: acc else acc)
    in
    collect (t.n - 1) []

  let on_block t b =
    if b >= 0 && b < t.n && Bytes.get t.got b = '\000' then begin
      Bytes.set t.got b '\001';
      t.count <- t.count + 1;
      t.max_seen <- Stdlib.max t.max_seen b;
      t.last_progress <- Netsim.Engine.now t.engine;
      if t.count >= t.n && t.done_at = None then
        t.done_at <- Some (Netsim.Engine.now t.engine)
    end
    else if b >= 0 then t.max_seen <- Stdlib.max t.max_seen b

  let send_nak t ids =
    let now = Netsim.Engine.now t.engine in
    let p =
      Netsim.Packet.make ~flow:(-1) ~size:nak_size ~src:t.node_id
        ~dst:(Netsim.Packet.Unicast t.sender_id) ~created:now
        (Nak { session = t.session; rx_id = t.node_id; missing = ids })
    in
    Netsim.Topology.inject t.topo p;
    t.naks <- t.naks + 1;
    t.last_nak <- now

  let consider_nak t =
    if not (complete t) then begin
      let now = Netsim.Engine.now t.engine in
      let stalled = now -. t.last_progress > 2. *. t.nak_interval in
      let candidates =
        List.filter (fun b -> stalled || b <= t.max_seen) (missing t)
      in
      let bounded = List.filteri (fun i _ -> i < t.max_nak_ids) candidates in
      if bounded <> [] && now -. t.last_nak >= t.nak_interval then send_nak t bounded
    end

  let rec schedule t =
    let delay = t.nak_interval *. (0.75 +. (0.5 *. Stats.Rng.uniform t.rng)) in
    t.timer <-
      Some
        (Netsim.Engine.after t.engine ~delay (fun () ->
             t.timer <- None;
             if not (complete t) then begin
               consider_nak t;
               schedule t
             end))

  let create topo tfmcc_rx ~sender ~session ~blocks ?(nak_interval = 0.5)
      ?(max_nak_ids = 64) () =
    if blocks <= 0 then invalid_arg "Repair.Receiver.create: blocks must be positive";
    if nak_interval <= 0. then invalid_arg "Repair.Receiver.create: nak_interval";
    if max_nak_ids <= 0 then invalid_arg "Repair.Receiver.create: max_nak_ids";
    let engine = Netsim.Topology.engine topo in
    let t =
      {
        topo;
        engine;
        session;
        node_id = Tfmcc_core.Receiver.node_id tfmcc_rx;
        sender_id = Netsim.Node.id sender;
        n = blocks;
        nak_interval;
        max_nak_ids;
        rng = Netsim.Engine.split_rng engine;
        got = Bytes.make blocks '\000';
        count = 0;
        max_seen = -1;
        last_progress = Netsim.Engine.now engine;
        last_nak = neg_infinity;
        naks = 0;
        done_at = None;
        timer = None;
      }
    in
    Tfmcc_core.Receiver.set_block_callback tfmcc_rx (on_block t);
    schedule t;
    t
end
