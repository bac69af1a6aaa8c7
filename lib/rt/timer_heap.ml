(* Binary min-heap of timers (see timer_heap.mli).

   Layout follows Netsim.Event_heap: [times] is a flat float array
   (unboxed keys) parallel to [entries]; sifts move a hole instead of
   swapping, and every float comparison stays inside one function body
   so no key is boxed on the way.  An entry is armed until it fires or
   is cancelled; cancelled entries stay in the arrays until they reach
   the root, where [purge] drops them, and [live] counts the armed
   ones. *)

type entry = { seq : int; fn : unit -> unit; mutable armed : bool }

type timer = entry

type t = {
  mutable times : float array;
  mutable entries : entry array;
  mutable len : int;
  mutable live : int;
  mutable next_seq : int;
  mutable fired_total : int;
}

let dummy = { seq = -1; fn = ignore; armed = false }

let initial_capacity = 64

(* An advance firing more timers than this that were themselves
   scheduled during the same advance is a runaway zero-delay chain:
   TFMCC's timers are paced, so fail loudly instead of hanging. *)
let max_chain = 1_000_000

let create () =
  {
    times = Array.make initial_capacity 0.;
    entries = Array.make initial_capacity dummy;
    len = 0;
    live = 0;
    next_seq = 0;
    fired_total = 0;
  }

(* Move the hole at [i] up until (time, seq) fits, then drop [e] in. *)
let sift_up t i time e =
  let times = t.times and entries = t.entries in
  let seq = e.seq in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = Array.unsafe_get times parent in
    if time < tp || (time = tp && seq < (Array.unsafe_get entries parent).seq)
    then begin
      Array.unsafe_set times !i tp;
      Array.unsafe_set entries !i (Array.unsafe_get entries parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set entries !i e

(* Remove the root: refill the hole with the last element, sifting it
   down. *)
let remove_root t =
  let len = t.len - 1 in
  t.len <- len;
  let times = t.times and entries = t.entries in
  let time = Array.unsafe_get times len in
  let e = Array.unsafe_get entries len in
  Array.unsafe_set entries len dummy;
  if len > 0 then begin
    let seq = e.seq in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        let r = l + 1 in
        let child =
          if r >= len then l
          else begin
            let tl = Array.unsafe_get times l
            and tr = Array.unsafe_get times r in
            if tr < tl then r
            else if tl < tr then l
            else if
              (Array.unsafe_get entries r).seq < (Array.unsafe_get entries l).seq
            then r
            else l
          end
        in
        let tc = Array.unsafe_get times child in
        if time < tc || (time = tc && seq < (Array.unsafe_get entries child).seq)
        then continue := false
        else begin
          Array.unsafe_set times !i tc;
          Array.unsafe_set entries !i (Array.unsafe_get entries child);
          i := child
        end
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set entries !i e
  end

let schedule t ~at fn =
  if Float.is_nan at then invalid_arg "Timer_heap.schedule: NaN deadline";
  if t.len = Array.length t.entries then begin
    let cap = 2 * t.len in
    let times = Array.make cap 0. and entries = Array.make cap dummy in
    Array.blit t.times 0 times 0 t.len;
    Array.blit t.entries 0 entries 0 t.len;
    t.times <- times;
    t.entries <- entries
  end;
  let e = { seq = t.next_seq; fn; armed = true } in
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  t.live <- t.live + 1;
  sift_up t (t.len - 1) at e;
  e

let cancel t e =
  if e.armed then begin
    e.armed <- false;
    t.live <- t.live - 1
  end

(* Drop cancelled entries off the top so the root is live (or the heap
   empty) on return. *)
let purge t =
  while t.len > 0 && not (Array.unsafe_get t.entries 0).armed do
    remove_root t
  done

let next_due t =
  purge t;
  if t.len = 0 then None else Some (Array.unsafe_get t.times 0)

let advance t ~now ?late () =
  let fired0 = t.fired_total in
  let seq0 = t.next_seq in
  let chained = ref 0 in
  purge t;
  while t.len > 0 && Array.unsafe_get t.times 0 <= now do
    let at = Array.unsafe_get t.times 0 in
    let e = Array.unsafe_get t.entries 0 in
    remove_root t;
    e.armed <- false;
    t.live <- t.live - 1;
    t.fired_total <- t.fired_total + 1;
    if e.seq >= seq0 then begin
      incr chained;
      if !chained > max_chain then
        failwith "Timer_heap.advance: runaway zero-delay timer chain"
    end;
    (match late with Some f -> f (now -. at) | None -> ());
    e.fn ();
    purge t
  done;
  t.fired_total - fired0

let pending t = t.live

let fired t = t.fired_total
