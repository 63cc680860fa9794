let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs in
    sqrt (acc /. float_of_int (n - 1))
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    sorted.(idx)
  end

let min_max xs =
  if Array.length xs = 0 then (0., 0.)
  else
    Array.fold_left
      (fun (lo, hi) x -> ((if x < lo then x else lo), if x > hi then x else hi))
      (xs.(0), xs.(0))
      xs
