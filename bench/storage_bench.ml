(* The storage engine measured along its three axes: sequential load
   through the heap layer, buffer-pool point reads as the pool shrinks
   below the working set, and restart-recovery time as a function of log
   length.  Every run works on throwaway files in the temp directory. *)

module E = Storage.Engine

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dbmeta_bench_%d_%d.db" (Unix.getpid ()) !n)
    in
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; E.wal_path path ];
    path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; E.wal_path path ]

let relation n =
  Relational.Relation.of_list
    (Relational.Schema.make
       [ ("id", Relational.Value.TInt); ("payload", Relational.Value.TString) ])
    (List.init n (fun i ->
         [ Relational.Value.Int i; Relational.Value.String (String.make 32 'r') ]))

let run () =
  Bench_util.header "Persistent storage: pager, buffer pool, WAL, recovery";
  let metrics = Bench_util.fresh_registry () in

  (* --- sequential load --------------------------------------------------- *)
  Bench_util.note "Sequential table load (32-byte payloads, 4 KiB pages):";
  let rows =
    List.map
      (fun n ->
        let path = fresh_path () in
        let eng = E.open_db path in
        let rel = relation n in
        let ms = snd (Bench_util.time_ms (fun () -> E.save_table eng "r" rel)) in
        let pages = Storage.Pager.page_count (E.pager eng) in
        E.close eng;
        cleanup path;
        Bench_util.record
          ~metric:(Printf.sprintf "load_%d_tuples" n)
          ms;
        [
          Bench_util.i n;
          Bench_util.i pages;
          Bench_util.ms ms;
          Bench_util.f1 (float_of_int n /. Float.max 0.001 ms);
        ])
      [ 1_000; 5_000; 20_000 ]
  in
  Support.Table.print
    ~header:[ "tuples"; "pages"; "ms"; "tuples/ms" ]
    rows;
  print_newline ();

  (* --- buffer-pool point reads ------------------------------------------- *)
  Bench_util.note
    "Point reads of 2000 items, zipf-skewed, as the pool shrinks below the \
     working set:";
  let path = fresh_path () in
  let items = 2_000 in
  let eng = E.open_db path in
  let txn = E.begin_txn eng in
  for i = 0 to items - 1 do
    E.write eng ~txn (Printf.sprintf "item%04d" i) i
  done;
  E.commit eng ~txn;
  E.close eng;
  let data_pages =
    let eng = E.open_db path in
    let p = Storage.Pager.page_count (E.pager eng) in
    E.close eng;
    p
  in
  let reads = 20_000 in
  let rows =
    List.map
      (fun pool_size ->
        let moved = Bench_util.since metrics in
        let eng = E.open_db ~pool_size ~metrics path in
        (* drop the pages the open itself touched, then read cold; the
           zipf sequence is drawn outside the timer *)
        Storage.Buffer_pool.drop_clean (E.pool eng);
        let rng = Support.Rng.create 42 in
        let seq =
          Array.init reads (fun _ ->
              Printf.sprintf "item%04d" (Support.Rng.zipf rng ~n:items ~s:1.1))
        in
        let ms =
          snd
            (Bench_util.time_ms (fun () ->
                 Array.iter (fun item -> ignore (E.read eng item : int)) seq))
        in
        let hits = moved "pool.hits" and misses = moved "pool.misses" in
        let evictions = moved "pool.evictions" in
        let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
        E.close eng;
        Bench_util.record
          ~metric:(Printf.sprintf "point_reads_pool_%d" pool_size)
          ms;
        Bench_util.record
          ~metric:(Printf.sprintf "hit_rate_pool_%d" pool_size)
          ~unit:"ratio" hit_rate;
        [
          Bench_util.i pool_size;
          Bench_util.i hits;
          Bench_util.i misses;
          Bench_util.i evictions;
          Printf.sprintf "%.1f%%" (100. *. hit_rate);
          Bench_util.ms ms;
        ])
      [ 2; 8; 32; 128 ]
  in
  Support.Table.print
    ~header:[ "pool"; "hits"; "misses"; "evictions"; "hit rate"; "ms" ]
    rows;
  Bench_util.note "(%d data pages; reads follow a zipf(1.1) law)" data_pages;
  cleanup path;
  print_newline ();

  (* --- recovery time vs log length ---------------------------------------- *)
  Bench_util.note
    "Restart recovery after a crash, as the surviving log grows (10-write \
     transactions, every other one left uncommitted at the crash):";
  let rows =
    List.map
      (fun log_writes ->
        let path = fresh_path () in
        let eng = E.open_db path in
        let txns = log_writes / 10 in
        for t = 0 to txns - 1 do
          let txn = E.begin_txn eng in
          for k = 0 to 9 do
            E.write eng ~txn (Printf.sprintf "t%dk%d" t k) (t + k)
          done;
          (* half the transactions commit; the rest stay open as losers *)
          if t mod 2 = 0 then E.commit eng ~txn
        done;
        (* force the uncommitted tail onto the platter, then die *)
        Storage.Wal.flush (E.wal eng);
        E.crash eng;
        let eng, ms = Bench_util.time_ms (fun () -> E.open_db path) in
        let outcome =
          match E.last_recovery eng with Some o -> o | None -> assert false
        in
        E.close eng;
        cleanup path;
        Bench_util.record
          ~metric:(Printf.sprintf "recovery_%d_writes" log_writes)
          ms;
        [
          Bench_util.i log_writes;
          Bench_util.i (List.length outcome.Storage.Recovery.winners);
          Bench_util.i (List.length outcome.Storage.Recovery.losers);
          Bench_util.i outcome.Storage.Recovery.redo_applied;
          Bench_util.i outcome.Storage.Recovery.undone;
          Bench_util.ms ms;
        ])
      [ 100; 1_000; 5_000 ]
  in
  Support.Table.print
    ~header:[ "log writes"; "winners"; "losers"; "redone"; "undone"; "ms" ]
    rows
