(* The observability layer: histogram bucket geometry and percentile
   bounds, registry rendering, span nesting and the ring recorder, the
   Chrome dump, and the metric-catalogue lint. *)

open Alcotest

module H = Obs.Histogram
module R = Obs.Registry
module T = Obs.Trace
module J = Obs.Json

(* --- histogram buckets --------------------------------------------------- *)

let test_bucket_geometry () =
  (* bucket 0 holds {0, 1}; bucket i >= 1 holds (2^(i-1), 2^i] *)
  check int "0 -> bucket 0" 0 (H.bucket_index 0);
  check int "1 -> bucket 0" 0 (H.bucket_index 1);
  check int "2 -> bucket 1" 1 (H.bucket_index 2);
  check int "3 -> bucket 2" 2 (H.bucket_index 3);
  check int "4 -> bucket 2" 2 (H.bucket_index 4);
  check int "5 -> bucket 3" 3 (H.bucket_index 5);
  check int "1024 -> bucket 10" 10 (H.bucket_index 1024);
  check int "1025 -> bucket 11" 11 (H.bucket_index 1025);
  (* upper bounds are inclusive and consistent with the index *)
  check int "upper 0" 1 (H.bucket_upper 0);
  check int "upper 1" 2 (H.bucket_upper 1);
  check int "upper 10" 1024 (H.bucket_upper 10);
  for v = 0 to 10_000 do
    let i = H.bucket_index v in
    if v > H.bucket_upper i then
      failf "sample %d above its bucket's upper bound" v;
    if i > 0 && v <= H.bucket_upper (i - 1) then
      failf "sample %d fits the previous bucket" v
  done

let test_histogram_counts () =
  let h = H.make () in
  check int "empty count" 0 (H.count h);
  check int "empty percentile" 0 (H.percentile h 0.5);
  List.iter (H.observe h) [ 1; 2; 3; 100; 50 ];
  check int "count" 5 (H.count h);
  check int "sum" 156 (H.sum h);
  check int "max exact" 100 (H.max_value h);
  H.observe h (-7);
  check int "negative clamps to 0" 6 (H.count h);
  check int "sum unchanged by clamp" 156 (H.sum h)

let test_percentile_units () =
  let h = H.make () in
  (* ten samples of 1000: every percentile is bucket_upper(1000) = 1000's
     bucket upper, clipped to the exact max of 1000 *)
  for _ = 1 to 10 do
    H.observe h 1000
  done;
  check int "p50 of constant" 1000 (H.percentile h 0.5);
  check int "p99 of constant" 1000 (H.percentile h 0.99);
  let h = H.make () in
  List.iter (H.observe h) [ 1; 1; 1; 1_000_000 ];
  (* the 0.5 quantile is a 1-sample; upper bound of bucket 0 is 1 *)
  check int "p50 small" 1 (H.percentile h 0.5);
  check bool "p100 bounded by max" true (H.percentile h 1.0 <= 1_000_000)

let test_time_inactive_skips_clock () =
  let reads = ref 0 in
  let clock () = incr reads; !reads * 10 in
  let active = H.make ~active:true ~clock () in
  let inactive = H.make ~active:false ~clock () in
  check int "timed result" 7 (H.time active (fun () -> 7));
  check int "active histogram read the clock twice" 2 !reads;
  check int "inactive result" 8 (H.time inactive (fun () -> 8));
  check int "inactive histogram never read the clock" 2 !reads;
  check int "inactive observed nothing" 0 (H.count inactive);
  (* observes on exception too *)
  (try H.time active (fun () -> raise Exit) with Exit -> ());
  check int "observed despite raise" 2 (H.count active)

(* QCheck: the reported percentile bounds the true sample quantile from
   above, and by bucket geometry is at most twice it (1 when the true
   quantile is 0, since bucket 0's upper bound is 1). *)
let percentile_bounds_quantile =
  QCheck.Test.make ~count:300 ~name:"percentile bounds true quantile"
    QCheck.(pair (list_of_size Gen.(1 -- 60) (int_bound 100_000)) (float_bound_inclusive 1.))
    (fun (samples, q) ->
      let h = H.make () in
      List.iter (H.observe h) samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let true_q = List.nth sorted (min (n - 1) (rank - 1)) in
      let p = H.percentile h q in
      true_q <= p && p <= max 1 (2 * true_q))

(* --- registry ------------------------------------------------------------ *)

(* Every registry but [R.declared] takes only declared names, so each
   test declares its instruments first, as a module's constructor would. *)
let declare_counters =
  List.iter (fun n -> ignore (R.counter R.declared n : R.Counter.t))

let test_registry_instruments () =
  declare_counters [ "a.count" ];
  ignore (R.gauge R.declared "a.gauge" : R.Gauge.t);
  ignore (R.histogram R.declared "a.hist" : H.t);
  let r = R.create () in
  check bool "enabled" true (R.enabled r);
  let c = R.counter r ~unit:"ops" ~help:"h" "a.count" in
  R.Counter.incr c;
  R.Counter.add c 4;
  check int "counter value" 5 (R.Counter.value c);
  let c' = R.counter r "a.count" in
  R.Counter.incr c';
  check int "same name, same instrument" 6 (R.Counter.value c);
  check (option int) "counter_value" (Some 6) (R.counter_value r "a.count");
  let g = R.gauge r ~unit:"pages" "a.gauge" in
  R.Gauge.set g 3;
  R.Gauge.add g (-1);
  check int "gauge" 2 (R.Gauge.value g);
  ignore (R.histogram r ~unit:"ns" "a.hist" : H.t);
  check (list string) "names sorted" [ "a.count"; "a.gauge"; "a.hist" ]
    (R.names r);
  check_raises "kind conflict"
    (Invalid_argument "Obs.Registry: a.count already registered as a counter")
    (fun () -> ignore (R.gauge r "a.count" : R.Gauge.t))

let test_registry_renderers () =
  declare_counters [ "e.commits" ];
  ignore (R.gauge R.declared "e.flag" : R.Gauge.t);
  ignore (R.histogram R.declared "e.lat" : H.t);
  let r = R.create () in
  R.Counter.add (R.counter r ~unit:"txns" ~help:"commits" "e.commits") 8;
  R.Gauge.set (R.gauge r "e.flag") 1;
  let h = R.histogram r ~unit:"ns" "e.lat" in
  H.observe h 100;
  (match J.validate (R.to_json r) with
  | Error e -> failf "to_json does not parse: %s" e
  | Ok json ->
      (match J.member "counters" json with
      | Some (J.Arr [ J.Obj fields ]) ->
          check bool "counter name present" true
            (List.mem_assoc "name" fields && List.mem_assoc "value" fields)
      | _ -> fail "counters array shape"));
  let text = R.to_text r in
  check bool "text mentions commits" true
    (Str_contains.contains text "e.commits");
  check bool "text mentions unit" true (Str_contains.contains text "txns")

let test_registry_noop () =
  declare_counters [ "x.y" ];
  ignore (R.histogram R.declared "x.h" : H.t);
  check bool "noop disabled" false (R.enabled R.noop);
  let c = R.counter R.noop "x.y" in
  R.Counter.incr c;
  check int "noop counters still count" 1 (R.Counter.value c);
  let h = R.histogram R.noop "x.h" in
  check bool "noop histograms are inactive" true (H.time h (fun () -> true));
  check int "noop histogram observed nothing" 0 (H.count h)

(* A name reaches a registry only as declared: exactly, or as a member
   of a declared family, and as the declared kind. *)
let test_registry_declared () =
  let r = R.create () in
  check_raises "undeclared name"
    (Invalid_argument "Obs.Registry: nowhere.declared is not declared")
    (fun () -> ignore (R.counter r "nowhere.declared" : R.Counter.t));
  check_raises "undeclared on noop too"
    (Invalid_argument "Obs.Registry: nowhere.declared is not declared")
    (fun () -> ignore (R.counter R.noop "nowhere.declared" : R.Counter.t));
  declare_counters [ "d.count"; "d.site.*" ];
  R.Counter.incr (R.counter r "d.site.page_N_write");
  check (option int) "family member" (Some 1)
    (R.counter_value r "d.site.page_N_write");
  check_raises "declared kind"
    (Invalid_argument "Obs.Registry: d.count is not declared as a gauge")
    (fun () -> ignore (R.gauge r "d.count" : R.Gauge.t));
  check_raises "a family is not its bare prefix"
    (Invalid_argument "Obs.Registry: d.sitex is not declared")
    (fun () -> ignore (R.counter r "d.sitex" : R.Counter.t));
  check bool "the declarations stay off other registries" false
    (List.mem "d.count" (R.names r));
  (* an instrumented module declared its own instruments when it was
     linked: the pager's constructor, the per-kind fault families *)
  let declared = R.rows R.declared in
  check bool "pager.reused declared by the pager" true
    (List.mem { R.name = "pager.reused"; kind = "counter"; unit = "pages" }
       declared);
  check bool "fault.torn.* declared by the injector" true
    (List.mem { R.name = "fault.torn.*"; kind = "counter"; unit = "events" }
       declared)

(* --- span tracing -------------------------------------------------------- *)

let make_trace ?capacity () =
  let t = ref 0 in
  let clock () = t := !t + 100; !t in
  T.create ?capacity ~clock ()

let test_span_nesting () =
  let tr = make_trace () in
  let result =
    T.with_span tr "outer" (fun () ->
        T.with_span tr ~args:[ ("k", "v") ] "inner" (fun () -> 42))
  in
  check int "result" 42 result;
  check bool "well formed" true (T.well_formed tr);
  check int "no open spans" 0 (T.depth tr);
  match T.events tr with
  | [ inner; outer ] ->
      (* inner closes first, so it is recorded first *)
      check string "inner name" "inner" inner.T.name;
      check string "outer name" "outer" outer.T.name;
      check int "inner depth" 1 inner.T.depth;
      check int "outer depth" 0 outer.T.depth;
      check bool "nesting: inner within outer" true
        (outer.T.start_ns <= inner.T.start_ns
        && inner.T.start_ns + inner.T.dur_ns
           <= outer.T.start_ns + outer.T.dur_ns);
      check (list (pair string string)) "args" [ ("k", "v") ] inner.T.args
  | evs -> failf "expected 2 events, got %d" (List.length evs)

let test_span_errors_and_noop () =
  let tr = make_trace () in
  check_raises "end without begin"
    (Invalid_argument "Obs.Trace.end_span: no open span") (fun () ->
      T.end_span tr);
  (* a raising thunk still closes its span *)
  (try T.with_span tr "boom" (fun () -> raise Exit) with Exit -> ());
  check bool "well formed after raise" true (T.well_formed tr);
  check int "span recorded" 1 (T.recorded tr);
  (* the noop recorder ignores everything, including stray end_span *)
  T.end_span T.noop;
  T.begin_span T.noop "x";
  check int "noop records nothing" 0 (T.recorded T.noop);
  check int "noop clock" 0 (T.now T.noop)

let test_ring_eviction () =
  let tr = make_trace ~capacity:2 () in
  List.iter
    (fun name -> T.with_span tr name (fun () -> ()))
    [ "a"; "b"; "c" ];
  check int "recorded counts evictions" 3 (T.recorded tr);
  check int "dropped" 1 (T.dropped tr);
  check (list string) "oldest evicted, order kept" [ "b"; "c" ]
    (List.map (fun e -> e.T.name) (T.events tr))

let test_chrome_dump () =
  let tr = make_trace () in
  T.with_span tr ~tid:3 "exec.txn" (fun () -> ());
  T.emit tr ~name:"wal.flush" ~start_ns:500 ~dur_ns:250 ();
  match J.validate (T.to_chrome tr) with
  | Error e -> failf "chrome dump does not parse: %s" e
  | Ok json -> (
      match J.member "traceEvents" json with
      | Some (J.Arr events) ->
          check int "two events" 2 (List.length events);
          List.iter
            (fun e ->
              match
                (J.member "ph" e, J.member "ts" e, J.member "dur" e,
                 J.member "pid" e, J.member "tid" e)
              with
              | Some (J.Str "X"), Some (J.Num ts), Some (J.Num _),
                Some (J.Num _), Some (J.Num _) ->
                  check bool "timestamps normalized to >= 0" true (ts >= 0.)
              | _ -> fail "complete-event fields missing")
            events
      | _ -> fail "missing traceEvents")

(* --- the catalogue lint -------------------------------------------------- *)

let codes ds = List.map (fun d -> d.Analysis.Diagnostic.code) ds

let counter name = { R.name; kind = "counter"; unit = "events" }

let lint declared catalogue_text =
  codes
    (Analysis.Obs_lint.lint ~declared:(List.map counter declared)
       ~catalogue_text)

let test_obs_lint () =
  let catalogue =
    "## Metric catalogue\n\
     | name | kind | unit | meaning |\n\
     |---|---|---|---|\n\
     | `pool.hits` | counter | events | hits |\n\
     | `fault.torn.*` | counter | events | torn writes, by site |\n\
     ## Span tracing\n\
     | `engine.commit` | 0 | `txn` | a span, not a metric |\n"
  in
  (* fully covered: an exact name, a family *)
  check (list string) "covered" []
    (lint [ "pool.hits"; "fault.torn.*" ] catalogue);
  (* an undocumented metric trips OB001 *)
  check (list string) "undocumented" [ "OB001" ]
    (lint [ "pool.hits"; "pool.misses"; "fault.torn.*" ] catalogue);
  (* a documented-but-gone name trips OB002 *)
  check (list string) "stale" [ "OB002" ]
    (lint [ "pool.misses" ]
       "## Metric catalogue\n\
        | `pool.hits` | counter | events |\n\
        | `pool.misses` | counter | events |\n");
  (* a family row covers no name by prefix: pool.* is not poolx.hits *)
  check (list string) "glob needs the dot" [ "OB001" ]
    (lint [ "poolx.hits"; "pool.*" ]
       "## Metric catalogue\n| `pool.*` | counter | events |\n");
  (* span names outside the catalogue section are invisible to the lint *)
  check (list string) "section scoping" []
    (lint [ "pool.hits"; "fault.torn.*" ] catalogue)

let test_obs_lint_prose () =
  (* prose documents nothing: a backticked family outside any row leaves
     its members undocumented *)
  check (list string) "prose is not a row" [ "OB001" ]
    (lint [ "pool.misses" ]
       "## Metric catalogue\nEvery `pool.*` counter counts fetches.\n")

let test_obs_lint_row_agreement () =
  (* a row must agree with the declaration's kind and unit *)
  check (list string) "unit disagrees" [ "OB003" ]
    (lint [ "pool.hits" ]
       "## Metric catalogue\n| `pool.hits` | counter | fetches |\n");
  check (list string) "kind disagrees" [ "OB003" ]
    (lint [ "pool.hits" ]
       "## Metric catalogue\n| `pool.hits` | gauge | events |\n")

let suite =
  [
    test_case "histogram bucket geometry" `Quick test_bucket_geometry;
    test_case "histogram counts and clamping" `Quick test_histogram_counts;
    test_case "percentile units" `Quick test_percentile_units;
    test_case "inactive timer skips the clock" `Quick
      test_time_inactive_skips_clock;
    QCheck_alcotest.to_alcotest percentile_bounds_quantile;
    test_case "registry instruments" `Quick test_registry_instruments;
    test_case "registry renderers" `Quick test_registry_renderers;
    test_case "noop registry" `Quick test_registry_noop;
    test_case "registries take declared names only" `Quick
      test_registry_declared;
    test_case "span nesting" `Quick test_span_nesting;
    test_case "span errors and noop recorder" `Quick
      test_span_errors_and_noop;
    test_case "ring eviction" `Quick test_ring_eviction;
    test_case "chrome trace dump" `Quick test_chrome_dump;
    test_case "metric-catalogue lint" `Quick test_obs_lint;
    test_case "metric-catalogue prose documents nothing" `Quick
      test_obs_lint_prose;
    test_case "metric-catalogue row kind and unit" `Quick
      test_obs_lint_row_agreement;
  ]
