(* Tests for the support library: RNG determinism, statistics, ODE, tables. *)

module Rng = Support.Rng
module Stats = Support.Stats
module Ode = Support.Ode

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-3))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = List.init 32 (fun _ -> Rng.bits64 parent) in
  let ys = List.init 32 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_uniformish () =
  let rng = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun count ->
      let frac = float_of_int count /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (frac > 0.07 && frac < 0.13))
    buckets

let test_rng_zipf_skew () =
  let rng = Rng.create 5 in
  let hits = Array.make 20 0 in
  for _ = 1 to 5000 do
    let v = Rng.zipf rng ~n:20 ~s:1.2 in
    hits.(v) <- hits.(v) + 1
  done;
  Alcotest.(check bool) "head is hot" true (hits.(0) > hits.(10));
  Alcotest.(check bool) "head dominates tail" true (hits.(0) > 3 * hits.(19))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng) in
  Alcotest.(check bool) "mean near 0" true (Float.abs (Stats.mean xs) < 0.05);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (Stats.stddev xs -. 1.) < 0.05)

let test_mean_variance () =
  check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  check_float "variance" 1.25 (Stats.variance [| 1.; 2.; 3.; 4. |]);
  check_float "empty mean" 0. (Stats.mean [||])

let test_median_percentile () =
  check_float "odd median" 3. (Stats.median [| 5.; 1.; 3. |]);
  check_float "even median" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |]);
  check_float "p0" 1. (Stats.percentile [| 1.; 2.; 3. |] 0.);
  check_float "p100" 3. (Stats.percentile [| 1.; 2.; 3. |] 100.);
  check_float "p50" 2. (Stats.percentile [| 1.; 2.; 3. |] 50.)

let test_moving_average () =
  let out = Stats.moving_average [| 10.; 14.; 9.; 18. |] 2 in
  Alcotest.(check int) "length preserved" 4 (Array.length out);
  check_float "first" 10. out.(0);
  check_float "second" 12. out.(1);
  check_float "third" 11.5 out.(2);
  check_float "fourth" 13.5 out.(3)

let test_autocorrelation_alternating () =
  (* a perfect two-period oscillation has strongly negative lag-1
     autocorrelation: the program-committee effect *)
  let xs = [| 10.; 14.; 10.; 14.; 10.; 14.; 10.; 14. |] in
  Alcotest.(check bool) "negative at lag 1" true (Stats.autocorrelation xs 1 < -0.5);
  Alcotest.(check bool) "positive at lag 2" true (Stats.autocorrelation xs 2 > 0.5)

let test_autocorrelation_edge_cases () =
  check_float "constant series" 0. (Stats.autocorrelation [| 1.; 1.; 1. |] 1);
  check_float "lag too large" 0. (Stats.autocorrelation [| 1.; 2. |] 5);
  check_float "lag zero" 0. (Stats.autocorrelation [| 1.; 2. |] 0)

let test_pearson () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "self-correlation" 1. (Stats.pearson xs xs);
  let neg = [| 4.; 3.; 2.; 1. |] in
  check_float "anti-correlation" (-1.) (Stats.pearson xs neg)

let test_linear_fit () =
  let xs = [| 0.; 1.; 2.; 3. |] and ys = [| 1.; 3.; 5.; 7. |] in
  let slope, intercept = Stats.linear_fit xs ys in
  check_float "slope" 2. slope;
  check_float "intercept" 1. intercept

let test_harmonic_strength () =
  let oscillating = [| 10.; 14.; 10.; 14.; 10.; 14.; 10.; 14. |] in
  let flat = [| 10.; 10.5; 11.; 11.5; 12.; 12.5; 13.; 13.5 |] in
  Alcotest.(check bool) "oscillation detected" true
    (Stats.harmonic_strength oscillating 2 > Stats.harmonic_strength flat 2);
  Alcotest.(check bool) "strong two-year harmonic" true
    (Stats.harmonic_strength oscillating 2 > 0.2)

let test_ode_exponential () =
  (* dy/dt = y, y(0) = 1, y(1) = e *)
  let f _ y = [| y.(0) |] in
  let traj = Ode.integrate f ~y0:[| 1. |] ~t0:0. ~t1:1. ~steps:100 in
  let _, final = traj.(Array.length traj - 1) in
  check_float_loose "rk4 matches e" (Float.exp 1.) final.(0)

let test_ode_rk4_beats_euler () =
  let f _ y = [| y.(0) |] in
  let final method_ =
    let traj = Ode.integrate ~method_ f ~y0:[| 1. |] ~t0:0. ~t1:1. ~steps:50 in
    (snd traj.(Array.length traj - 1)).(0)
  in
  let err_rk4 = Float.abs (final `Rk4 -. Float.exp 1.) in
  let err_euler = Float.abs (final `Euler -. Float.exp 1.) in
  Alcotest.(check bool) "rk4 more accurate" true (err_rk4 < err_euler /. 100.)

let test_ode_sample_at () =
  let f _ _ = [| 1. |] in
  (* y = t *)
  let traj = Ode.integrate f ~y0:[| 0. |] ~t0:0. ~t1:10. ~steps:10 in
  let samples = Ode.sample_at traj ~times:[| 2.5; 7.25 |] in
  check_float_loose "interpolated 2.5" 2.5 samples.(0).(0);
  check_float_loose "interpolated 7.25" 7.25 samples.(1).(0)

let test_table_render () =
  let out = Support.Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' out in
  (* header + separator + 2 rows + empty fragment after trailing newline *)
  Alcotest.(check int) "5 fragments" 5 (List.length lines);
  Alcotest.(check bool) "header present" true
    (String.length (List.nth lines 0) >= String.length "a    bb")

(* A list-building renderer as the reference model: pad every row to
   the widest, pad every cell to its column, join with two spaces. *)
let reference_render ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let all = List.map (fun r -> r @ List.init (ncols - List.length r) (fun _ -> "")) all in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let row r =
    String.concat "  "
      (List.mapi (fun i c -> c ^ String.make (widths.(i) - String.length c) ' ') r)
  in
  let sep =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "" (List.map (fun l -> l ^ "\n") (row (List.hd all) :: sep :: List.map row (List.tl all)))

let test_table_render_bytes () =
  Alcotest.(check string) "aligned, padded, ragged rows filled"
    "a    bb\n---  --\n1    2 \n333  4 \nx      \n"
    (Support.Table.render ~header:[ "a"; "bb" ]
       [ [ "1"; "2" ]; [ "333"; "4" ]; [ "x" ] ]);
  Alcotest.(check string) "no columns" "\n\n" (Support.Table.render ~header:[] [])

let prop_table_render_matches_reference =
  let open QCheck2 in
  let cell = Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '\xe2' ]) (int_range 0 6)) in
  let row = Gen.(list_size (int_range 0 5) cell) in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:300 ~name:"table render = list-building reference"
       Gen.(pair row (list_size (int_range 0 8) row))
       (fun (header, rows) ->
         Support.Table.render ~header rows = reference_render ~header rows))

let test_sparkline () =
  let s = Support.Table.sparkline [| 0.; 1.; 2. |] in
  Alcotest.(check bool) "non-empty" true (String.length s > 0);
  Alcotest.(check string) "constant series" ""
    (Support.Table.sparkline [||])

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int uniformish" `Quick test_rng_int_uniformish;
    Alcotest.test_case "rng zipf skew" `Quick test_rng_zipf_skew;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "mean/variance" `Quick test_mean_variance;
    Alcotest.test_case "median/percentile" `Quick test_median_percentile;
    Alcotest.test_case "moving average (two-year)" `Quick test_moving_average;
    Alcotest.test_case "autocorrelation alternating" `Quick test_autocorrelation_alternating;
    Alcotest.test_case "autocorrelation edges" `Quick test_autocorrelation_edge_cases;
    Alcotest.test_case "pearson" `Quick test_pearson;
    Alcotest.test_case "linear fit" `Quick test_linear_fit;
    Alcotest.test_case "harmonic strength" `Quick test_harmonic_strength;
    Alcotest.test_case "ode exponential" `Quick test_ode_exponential;
    Alcotest.test_case "rk4 beats euler" `Quick test_ode_rk4_beats_euler;
    Alcotest.test_case "ode sample_at" `Quick test_ode_sample_at;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table render bytes" `Quick test_table_render_bytes;
    prop_table_render_matches_reference;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
  ]
