(* The buffer pool: a bounded cache of pages with pin counts, dirty
   tracking, and LRU eviction.  Evicting a dirty page flushes it — the
   "steal" in steal/no-force — but only after the WAL hook has made the
   log durable up to that page's LSN (write-ahead rule).

   Frames own their buffers: a miss reads into the buffer of the frame
   it evicts, so a pool allocates at most [capacity] page buffers in its
   life.  Buffers that leave the frame table without a successor — a
   failed read, [drop_clean] — wait in [spare] for the next frame;
   resident frames plus spares never exceed [capacity]. *)

type frame = {
  page : Page.t;
  mutable dirty : bool;
  mutable pins : int;
  mutable stamp : int;
}

type metrics = {
  m_hits : Obs.Registry.Counter.t;
  m_misses : Obs.Registry.Counter.t;
  m_evictions : Obs.Registry.Counter.t;
  m_flushes : Obs.Registry.Counter.t;
  m_resident : Obs.Registry.Gauge.t;
}

let make_metrics registry =
  let counter = Obs.Registry.counter registry in
  {
    m_hits = counter ~unit:"fetches" ~help:"fetches served from the pool" "pool.hits";
    m_misses =
      counter ~unit:"fetches" ~help:"fetches that read from disk" "pool.misses";
    m_evictions = counter ~unit:"pages" ~help:"frames evicted (LRU)" "pool.evictions";
    m_flushes =
      counter ~unit:"pages" ~help:"dirty frames written back" "pool.flushes";
    m_resident =
      Obs.Registry.gauge registry ~unit:"pages" ~help:"frames currently cached"
        "pool.resident";
  }

let () = ignore (make_metrics Obs.Registry.declared)

type t = {
  pager : Pager.t;
  capacity : int;
  frames : (int, frame) Hashtbl.t;
  metrics : metrics;
  mutable clock : int;
  mutable spare : Page.t list;
  mutable wal_barrier : int -> unit;
}

exception Pool_exhausted

let create ?(capacity = 64) ?(metrics = Obs.Registry.noop) pager =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity < 1";
  {
    pager;
    capacity;
    frames = Hashtbl.create (2 * capacity);
    metrics = make_metrics metrics;
    clock = 0;
    spare = [];
    wal_barrier = (fun _ -> ());
  }

let pager t = t.pager
let capacity t = t.capacity
let set_wal_barrier t f = t.wal_barrier <- f

let touch t frame =
  t.clock <- t.clock + 1;
  frame.stamp <- t.clock

let flush_frame t id frame =
  if frame.dirty then begin
    t.wal_barrier (Page.lsn frame.page);
    Pager.write_page t.pager id frame.page;
    frame.dirty <- false;
    Obs.Registry.Counter.incr t.metrics.m_flushes
  end

let evict_one t =
  let victim =
    Hashtbl.fold
      (fun id frame best ->
        if frame.pins > 0 then best
        else
          match best with
          | Some (_, b) when b.stamp <= frame.stamp -> best
          | _ -> Some (id, frame))
      t.frames None
  in
  match victim with
  | None -> raise Pool_exhausted
  | Some (id, frame) ->
      flush_frame t id frame;
      Hashtbl.remove t.frames id;
      Obs.Registry.Counter.incr t.metrics.m_evictions;
      Obs.Registry.Gauge.set t.metrics.m_resident (Hashtbl.length t.frames);
      frame.page

(* A buffer for a new frame: the LRU victim's when the pool is full,
   else a spare one, else a fresh allocation. *)
let take_buffer t =
  if Hashtbl.length t.frames >= t.capacity then evict_one t
  else
    match t.spare with
    | page :: rest ->
        t.spare <- rest;
        page
    | [] -> Bytes.create Page.size

let install t id page ~pins =
  let frame = { page; dirty = false; pins; stamp = 0 } in
  touch t frame;
  Hashtbl.replace t.frames id frame;
  Obs.Registry.Gauge.set t.metrics.m_resident (Hashtbl.length t.frames)

let fetch t id =
  match Hashtbl.find_opt t.frames id with
  | Some frame ->
      Obs.Registry.Counter.incr t.metrics.m_hits;
      frame.pins <- frame.pins + 1;
      touch t frame;
      frame.page
  | None ->
      Obs.Registry.Counter.incr t.metrics.m_misses;
      let page = take_buffer t in
      (try Pager.read_into t.pager id page
       with e ->
         t.spare <- page :: t.spare;
         raise e);
      install t id page ~pins:1;
      page

let frame_exn t id what =
  match Hashtbl.find_opt t.frames id with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Buffer_pool.%s: page %d not resident" what id)

let unpin t id =
  let f = frame_exn t id "unpin" in
  if f.pins <= 0 then invalid_arg "Buffer_pool.unpin: not pinned";
  f.pins <- f.pins - 1

let mark_dirty t id = (frame_exn t id "mark_dirty").dirty <- true

let with_page t id f =
  let page = fetch t id in
  Fun.protect ~finally:(fun () -> unpin t id) (fun () -> f page)

(* The adopted page becomes the frame's buffer; the one it displaces —
   the victim's, or a spare when the pool already holds [capacity] —
   is dropped.  A frame the id still has is a reused page's old image:
   it is dropped unflushed, so it can never overwrite the new page. *)
let adopt t id page =
  (match Hashtbl.find_opt t.frames id with
  | Some stale ->
      Hashtbl.remove t.frames id;
      t.spare <- stale.page :: t.spare
  | None -> ());
  if Hashtbl.length t.frames >= t.capacity then ignore (evict_one t : Page.t)
  else if Hashtbl.length t.frames + List.length t.spare >= t.capacity then
    t.spare <- List.tl t.spare;
  install t id page ~pins:0

let flush_page t id =
  match Hashtbl.find_opt t.frames id with
  | Some frame -> flush_frame t id frame
  | None -> ()

let flush_all t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.frames []
  |> List.sort Int.compare
  |> List.iter (fun id -> flush_page t id)

let drop_clean t =
  let victims =
    Hashtbl.fold
      (fun id f acc -> if (not f.dirty) && f.pins = 0 then (id, f) :: acc else acc)
      t.frames []
  in
  List.iter
    (fun (id, f) ->
      Hashtbl.remove t.frames id;
      t.spare <- f.page :: t.spare)
    victims;
  Obs.Registry.Gauge.set t.metrics.m_resident (Hashtbl.length t.frames)

let resident t = Hashtbl.length t.frames
let has_dirty t = Seq.exists (fun f -> f.dirty) (Hashtbl.to_seq_values t.frames)
