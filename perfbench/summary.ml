let percentile xs q =
  match List.sort compare xs with
  | [] -> invalid_arg "Summary.percentile: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      let w = pos -. float_of_int lo in
      (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)

let median xs = percentile xs 0.5

let slope pts =
  let n = float_of_int (List.length pts) in
  let mx = List.fold_left (fun s (x, _) -> s +. x) 0. pts /. n in
  let my = List.fold_left (fun s (_, y) -> s +. y) 0. pts /. n in
  let sxy, sxx =
    List.fold_left
      (fun (sxy, sxx) (x, y) ->
        (sxy +. ((x -. mx) *. (y -. my)), sxx +. ((x -. mx) *. (x -. mx))))
      (0., 0.) pts
  in
  if sxx > 0. then sxy /. sxx else 0.
