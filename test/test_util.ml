(* Tests for the ff_util support library. *)

open Ff_util

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.next a = Prng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 10 in
    Alcotest.(check bool) "in bounds" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Prng.in_range rng 5 8 in
    Alcotest.(check bool) "in range" true (v >= 5 && v < 8)
  done

let test_prng_uniformity () =
  let rng = Prng.create 9 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (frac > 0.08 && frac < 0.12))
    buckets

let test_prng_split_independent () =
  let a = Prng.create 3 in
  let b = Prng.split a in
  let eq = ref 0 in
  for _ = 1 to 50 do
    if Prng.next a = Prng.next b then incr eq
  done;
  Alcotest.(check bool) "split independent" true (!eq < 5)

let test_shuffle_permutation () =
  let rng = Prng.create 11 in
  let a = Array.init 100 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_zipf_skew () =
  let rng = Prng.create 13 in
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let hits = Array.make 1000 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let r = Zipf.sample z rng in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < 1000);
    hits.(r) <- hits.(r) + 1
  done;
  (* Rank 0 must be much hotter than rank 500. *)
  Alcotest.(check bool) "skewed" true (hits.(0) > 20 * max 1 hits.(500))

let test_zipf_uniform_ish_low_theta () =
  let rng = Prng.create 17 in
  let z = Zipf.create ~n:10 ~theta:0.01 in
  let hits = Array.make 10 0 in
  for _ = 1 to 20_000 do
    hits.(Zipf.sample z rng) <- hits.(Zipf.sample z rng) + 1
  done;
  Alcotest.(check bool) "all ranks hit" true (Array.for_all (fun c -> c > 0) hits)

let test_vec () =
  let v = Vec.create ~dummy:0 () in
  for i = 1 to 100 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 50 (Vec.get v 49);
  Vec.set v 0 999;
  Alcotest.(check int) "set" 999 (Vec.get v 0);
  Alcotest.(check int) "pop" 100 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Vec.clear v;
  Alcotest.(check bool) "empty" true (Vec.is_empty v)

let test_heap_order () =
  let h = Heap.create () in
  let rng = Prng.create 23 in
  let keys = Array.init 500 (fun _ -> Prng.int rng 1000) in
  Array.iteri (fun i k -> Heap.push h k i) keys;
  let prev = ref min_int in
  for _ = 1 to 500 do
    match Heap.pop h with
    | None -> Alcotest.fail "heap exhausted early"
    | Some (k, _) ->
        Alcotest.(check bool) "non-decreasing" true (k >= !prev);
        prev := k
  done;
  Alcotest.(check bool) "empty at end" true (Heap.is_empty h)

let test_heap_stability () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h 5 i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (5, v) -> Alcotest.(check int) "FIFO among equal keys" i v
    | Some _ | None -> Alcotest.fail "bad pop"
  done

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  let samples_a = [ 10; 100; 1000; 50; 5 ] in
  let samples_b = [ 20_000; 3; 777 ] in
  List.iter (Histogram.add a) samples_a;
  List.iter (Histogram.add b) samples_b;
  (* Reference: the same samples recorded into one histogram. *)
  let all = Histogram.create () in
  List.iter (Histogram.add all) (samples_a @ samples_b);
  Histogram.merge a b;
  Alcotest.(check int) "count" (Histogram.count all) (Histogram.count a);
  Alcotest.(check (float 0.001)) "mean" (Histogram.mean all) (Histogram.mean a);
  Alcotest.(check int) "max sample" (Histogram.max_sample all)
    (Histogram.max_sample a);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%g" p)
        (Histogram.percentile all p) (Histogram.percentile a p))
    [ 0.; 50.; 90.; 99.; 100. ];
  (* Merging an empty histogram is the identity. *)
  let before = Histogram.count a in
  Histogram.merge a (Histogram.create ());
  Alcotest.(check int) "merge empty is identity" before (Histogram.count a)

(* The bucket-scheme contract (see lib/util/histogram.ml): merge sums
   bucket counts, so a merged percentile must land in the same bucket
   as the percentile over the pooled raw samples — within one sqrt(2)
   bucket once boundary rank conventions are allowed for. *)
let prop_histogram_merged_p99 =
  let gen_samples = QCheck.(list_of_size Gen.(1 -- 200) (int_range 1 1_000_000)) in
  QCheck.Test.make ~count:300 ~name:"merged p99 within one bucket of pooled p99"
    (QCheck.pair gen_samples gen_samples)
    (fun (xs, ys) ->
      let a = Histogram.create () and b = Histogram.create () in
      List.iter (Histogram.add a) xs;
      List.iter (Histogram.add b) ys;
      Histogram.merge a b;
      let pooled = List.sort compare (xs @ ys) in
      let n = List.length pooled in
      let rank =
        max 1 (min n (int_of_float (ceil (99. /. 100. *. float_of_int n))))
      in
      let exact = List.nth pooled (rank - 1) in
      let got = Histogram.percentile a 99. in
      abs (Histogram.bucket_of got - Histogram.bucket_of exact) <= 1)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_render () =
  let t = Table.create [ "a"; "bb" ] in
  Table.add_row t [ "x"; "y" ];
  Table.add_floats t "f" [ 1.5 ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true (contains s "a");
  Alcotest.(check bool) "contains float" true (contains s "1.500")

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seeds differ" `Quick test_prng_different_seeds;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng uniformity" `Quick test_prng_uniformity;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf low theta" `Quick test_zipf_uniform_ish_low_theta;
    Alcotest.test_case "vec" `Quick test_vec;
    Alcotest.test_case "heap order" `Quick test_heap_order;
    Alcotest.test_case "heap stability" `Quick test_heap_stability;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    QCheck_alcotest.to_alcotest prop_histogram_merged_p99;
    Alcotest.test_case "table render" `Quick test_table_render;
  ]
