type t = {
  names : string array;
  calls : int array;
  self : int array;
  (* Open-span stack: name index, start, and the summed durations of
     the children closed so far; the entry below a span is its parent. *)
  mutable st_name : int array;
  mutable st_start : int array;
  mutable st_child : int array;
  mutable depth : int;
}

let create names =
  let n = Array.length names in
  let cap = 64 in
  {
    names;
    calls = Array.make n 0;
    self = Array.make n 0;
    st_name = Array.make cap 0;
    st_start = Array.make cap 0;
    st_child = Array.make cap 0;
    depth = 0;
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let grow t =
  let g a = Array.append a (Array.make (Array.length a) 0) in
  t.st_name <- g t.st_name;
  t.st_start <- g t.st_start;
  t.st_child <- g t.st_child

let enter_at t i ~ns =
  if t.depth = Array.length t.st_name then grow t;
  let d = t.depth in
  t.st_name.(d) <- i;
  t.st_start.(d) <- ns;
  t.st_child.(d) <- 0;
  t.depth <- d + 1

let exit_at t ~ns =
  if t.depth = 0 then invalid_arg "Span.exit: no open span";
  let d = t.depth - 1 in
  t.depth <- d;
  let i = t.st_name.(d) in
  let dur = ns - t.st_start.(d) in
  let self = dur - t.st_child.(d) in
  t.calls.(i) <- t.calls.(i) + 1;
  t.self.(i) <- t.self.(i) + self;
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur

let enter t i = enter_at t i ~ns:(now_ns ())
let exit t = exit_at t ~ns:(now_ns ())
let names t = t.names
let depth t = t.depth
let calls t i = t.calls.(i)
let self_ns t i = t.self.(i)
let self_sum_ns t = Array.fold_left ( + ) 0 t.self
