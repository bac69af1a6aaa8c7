open Bigarray

type bufs = {
  table : (int, int_elt, c_layout) Array1.t;  (* 1 MB: random read-modify-writes *)
  stream : (int, int_elt, c_layout) Array1.t;  (* 2 MB: one sequential write pass *)
  heap : (float, float64_elt, c_layout) Array1.t;  (* 512 KB: sift-ups *)
}

let bufs =
  Domain.DLS.new_key (fun () ->
      let ints n =
        let a = Array1.create int c_layout n in
        Array1.fill a 0;
        a
      in
      let heap = Array1.create float64 c_layout (1 lsl 16) in
      Array1.fill heap 0.;
      { table = ints (1 lsl 17); stream = ints (1 lsl 18); heap })

let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff

(* One pass does the same work every time: the heap starts from the same
   valid min-heap and the generator from the same state. *)
let pass b =
  let x = ref 1 in
  let table = b.table in
  let mask = Array1.dim table - 1 in
  for _ = 1 to 20_000 do
    x := lcg !x;
    let i = !x land mask in
    Array1.unsafe_set table i (Array1.unsafe_get table i + 1)
  done;
  let stream = b.stream in
  for i = 0 to Array1.dim stream - 1 do
    Array1.unsafe_set stream i (i + !x)
  done;
  let heap = b.heap in
  let n = Array1.dim heap in
  for i = 0 to n - 1 do
    Array1.unsafe_set heap i (float_of_int i)
  done;
  for _ = 1 to 12_000 do
    x := lcg !x;
    let i = ref (!x land (n - 1)) in
    Array1.unsafe_set heap !i (float_of_int (!x land 0xffff));
    while !i > 0 && Array1.unsafe_get heap ((!i - 1) / 2) > Array1.unsafe_get heap !i do
      let p = (!i - 1) / 2 in
      let t = Array1.unsafe_get heap p in
      Array1.unsafe_set heap p (Array1.unsafe_get heap !i);
      Array1.unsafe_set heap !i t;
      i := p
    done
  done;
  !x + Array1.unsafe_get table 0

let ref_ns = 600_000

let sample () =
  let b = Domain.DLS.get bufs in
  let once () =
    let t0 = Span.now_ns () in
    ignore (Sys.opaque_identity (pass b) : int);
    Span.now_ns () - t0
  in
  let a = once () in
  let b = once () in
  min a (min b (once ()))

let scale ns ~k0 ~k1 =
  int_of_float (float_of_int ns *. float_of_int (2 * ref_ns) /. float_of_int (k0 + k1))

let steps ?(calibrate = true) step =
  let sample () = if calibrate then sample () else ref_ns in
  let rec go k k0 scaled raw =
    let t0 = Span.now_ns () in
    let more = step k in
    let ns = Span.now_ns () - t0 in
    let k1 = sample () in
    let scaled = scaled + scale ns ~k0 ~k1 and raw = raw + ns in
    if more then go (k + 1) k1 scaled raw else (scaled, raw)
  in
  go 1 (sample ()) 0 0
