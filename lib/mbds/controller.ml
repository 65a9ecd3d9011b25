type placement =
  | Round_robin
  | Skewed of float

type t = {
  ctrl_name : string;
  cost : Cost.t;
  placement : placement;
  backends : Abdm.Store.t array;
  (* [Some pool] iff this controller dispatches backend work to worker
     domains; backend [i] is always served by worker [Pool.owner pool i],
     so each store has exactly one mutating domain (the ownership contract
     of Abdm.Store). *)
  pool : Pool.t option;
  mutable next_key : int;
  stats : Stats.t;
  (* per-backend load instruments in the process-wide metrics registry;
     two controllers with the same name share them (get-or-create) *)
  obs_scanned : Obs.Metrics.counter array;
  obs_written : Obs.Metrics.counter array;
  obs_records : Obs.Metrics.gauge array;
}

let default_parallel () = Domain.recommended_domain_count () > 1

let create ?(cost = Cost.default) ?(name = "mbds") ?(placement = Round_robin)
    ?parallel n =
  if n < 1 then invalid_arg "Controller.create: need at least one backend";
  begin
    match placement with
    (* [not (f >= 0. && f <= 1.)] also rejects NaN, which the previous
       two-sided comparison let through *)
    | Skewed f when not (f >= 0. && f <= 1.) ->
      invalid_arg "Controller.create: skew fraction outside [0, 1]"
    | Skewed _ | Round_robin -> ()
  end;
  (* with one backend any skew is degenerate — every key lands on backend
     0 either way — so normalise to Round_robin *)
  let placement = if n = 1 then Round_robin else placement in
  let parallel =
    match parallel with Some b -> b | None -> default_parallel ()
  in
  let pool = if parallel && n > 1 then Some (Pool.shared ()) else None in
  let backend i = Abdm.Store.create ~name:(Printf.sprintf "%s-be%d" name i) () in
  let instrument make suffix =
    Array.init n (fun i -> make (Printf.sprintf "mbds.%s.be%d.%s" name i suffix))
  in
  {
    ctrl_name = name;
    cost;
    placement;
    backends = Array.init n backend;
    pool;
    next_key = 1;
    stats = Stats.create ();
    obs_scanned = instrument Obs.Metrics.counter "scanned";
    obs_written = instrument Obs.Metrics.counter "written";
    obs_records = instrument Obs.Metrics.gauge "records";
  }

let num_backends t = Array.length t.backends

let name t = t.ctrl_name

let parallel t = t.pool <> None

let placement t = t.placement

(* deterministic in the key, so get/replace can re-derive the backend *)
let backend_index_of_key t key =
  let n = Array.length t.backends in
  match t.placement with
  | Round_robin -> key mod n
  | Skewed fraction ->
    (* a cheap multiplicative hash decides the skewed share *)
    let h = key * 2654435761 land 0x3FFFFFFF in
    if float_of_int (h mod 1000) < fraction *. 1000. then 0 else key mod n

let now () = Unix.gettimeofday ()

(* Run [f] against every backend, returning per-backend results and the
   (scanned, written) work each performed; charge the cost model and record
   the measured wall clock. In parallel mode each backend's task runs on
   its owner domain; results are merged in backend-index order either way,
   so the two modes are observationally identical.

   Tracing: the broadcast opens one span; each backend's share is a child
   span keyed by backend index. Sequential children nest directly; parallel
   children complete as roots on their worker domains and are adopted here
   once every future is awaited (the pool is then quiescent for this
   request — the same happens-before edge the store contract uses), so
   both modes emit the same sibling order. *)
let broadcast t ~op ~results_of ~writes_of f =
  Obs.Span.with_span "mbds.broadcast"
    ~attrs:(fun () ->
      [
        "op", op;
        "backends", string_of_int (Array.length t.backends);
        "mode", (if t.pool = None then "sequential" else "parallel");
      ])
    (fun () ->
      Array.iter Abdm.Store.reset_scan_count t.backends;
      let t0 = now () in
      let backend_task i backend ~queued_s () =
        Obs.Span.with_span "mbds.backend" ~index:i
          ~attrs:(fun () ->
            let base = [ "backend", string_of_int i ] in
            match queued_s with
            | None -> base
            | Some q ->
              base
              @ [ "queue_wait_us",
                  Printf.sprintf "%.1f" (Obs.Clock.since q *. 1e6) ])
          (fun () -> f backend)
      in
      let per_backend_arr =
        match t.pool with
        | Some pool ->
          let queued_s = Some (Obs.Clock.now_s ()) in
          let tasks =
            Array.mapi (fun i backend -> backend_task i backend ~queued_s)
              t.backends
          in
          let r = Pool.map pool tasks in
          Obs.Span.adopt_remote ();
          r
        | None ->
          Array.mapi
            (fun i backend -> backend_task i backend ~queued_s:None ())
            t.backends
      in
      let measured = now () -. t0 in
      let per_backend = Array.to_list per_backend_arr in
      let backend_work =
        List.map2
          (fun backend result ->
            Abdm.Store.scan_count backend, writes_of result)
          (Array.to_list t.backends) per_backend
      in
      List.iteri
        (fun i (scanned, written) ->
          if scanned > 0 then Obs.Metrics.incr ~by:scanned t.obs_scanned.(i);
          if written > 0 then Obs.Metrics.incr ~by:written t.obs_written.(i);
          Obs.Metrics.set_gauge t.obs_records.(i)
            (float_of_int (Abdm.Store.size t.backends.(i))))
        backend_work;
      let results =
        List.fold_left (fun acc r -> acc + results_of r) 0 per_backend
      in
      let dt = Cost.response_time t.cost ~backend_work ~results in
      Stats.record ~measured t.stats dt;
      per_backend)

(* Per-key mutations go through the owning worker in parallel mode, so the
   single-writer discipline holds even when callers interleave them with
   future asynchronous broadcasts. *)
let on_owner t idx f =
  match t.pool with
  | Some pool -> Pool.run_on pool idx f
  | None -> f ()

let insert t record =
  let key = t.next_key in
  t.next_key <- key + 1;
  let idx = backend_index_of_key t key in
  let backend = t.backends.(idx) in
  Obs.Span.with_span "mbds.insert"
    ~attrs:(fun () ->
      [ "key", string_of_int key; "backend", string_of_int idx ])
    (fun () ->
      let t0 = now () in
      on_owner t idx (fun () -> Abdm.Store.insert_keyed backend key record);
      let measured = now () -. t0 in
      let backend_work =
        Array.to_list
          (Array.map (fun b -> 0, if b == backend then 1 else 0) t.backends)
      in
      Obs.Metrics.incr t.obs_written.(idx);
      Obs.Metrics.set_gauge t.obs_records.(idx)
        (float_of_int (Abdm.Store.size backend));
      Stats.record ~measured t.stats
        (Cost.response_time t.cost ~backend_work ~results:0);
      key)

let select t query =
  let per_backend =
    broadcast t ~op:"select"
      ~results_of:List.length
      ~writes_of:(fun _ -> 0)
      (fun backend -> Abdm.Store.select backend query)
  in
  List.concat per_backend
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Every live record in ascending-dbkey order: the backends' ordered
   lists merged pairwise (a key lives on exactly one backend). Reads
   state snapshots only, so no owner hop (same argument as [get]). *)
let bindings t =
  let merge xs ys =
    let rec go acc xs ys =
      match xs, ys with
      | [], rest | rest, [] -> List.rev_append acc rest
      | ((kx, _) as x) :: xs', ((ky, _) as y) :: ys' ->
        if kx < ky then go (x :: acc) xs' ys else go (y :: acc) xs ys'
    in
    go [] xs ys
  in
  Array.fold_left (fun acc b -> merge acc (Abdm.Store.bindings b)) [] t.backends

(* Reads directory snapshots only; no owner hop needed (same argument as
   [get] below). Each backend partition holds different rows, so its
   cardinalities — and possibly its chosen access path — differ. *)
let explain t query =
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun i backend ->
            Printf.sprintf "backend %d (%s):\n%s" i (Abdm.Store.name backend)
              (Abdm.Plan.to_string (Abdm.Store.explain backend query)))
          t.backends))

let delete t query =
  let per_backend =
    broadcast t ~op:"delete"
      ~results_of:(fun _ -> 0)
      ~writes_of:(fun n -> n)
      (fun backend -> Abdm.Store.delete backend query)
  in
  List.fold_left ( + ) 0 per_backend

let update t query modifiers =
  let per_backend =
    broadcast t ~op:"update"
      ~results_of:(fun _ -> 0)
      ~writes_of:(fun n -> n)
      (fun backend -> Abdm.Store.update backend query modifiers)
  in
  List.fold_left ( + ) 0 per_backend

(* reads need no owner hop: the pool is quiescent between requests and
   awaiting any prior dispatch already published the owner's writes. A get
   is still a request the controller served, so it is charged to the cost
   model (one record access on the owning backend) and recorded in Stats. *)
let get t key =
  let idx = backend_index_of_key t key in
  let backend = t.backends.(idx) in
  Obs.Span.with_span "mbds.get"
    ~attrs:(fun () ->
      [ "key", string_of_int key; "backend", string_of_int idx ])
    (fun () ->
      let t0 = now () in
      let result = Abdm.Store.get backend key in
      let measured = now () -. t0 in
      let backend_work =
        List.init (Array.length t.backends) (fun i ->
            (if i = idx then 1 else 0), 0)
      in
      let results = if Option.is_some result then 1 else 0 in
      Stats.record ~measured t.stats
        (Cost.response_time t.cost ~backend_work ~results);
      result)

let replace t key record =
  let idx = backend_index_of_key t key in
  on_owner t idx (fun () -> Abdm.Store.replace t.backends.(idx) key record)

(* Restore path (snapshot / WAL replay): store a record under its saved
   global key. Placement is a pure function of the key, so a restored
   controller with the same placement policy routes every record to the
   same backend it lived on. Not charged to the response-time model. *)
let insert_keyed t key record =
  let idx = backend_index_of_key t key in
  let backend = t.backends.(idx) in
  on_owner t idx (fun () -> Abdm.Store.insert_keyed backend key record);
  if key >= t.next_key then t.next_key <- key + 1;
  Obs.Metrics.incr t.obs_written.(idx);
  Obs.Metrics.set_gauge t.obs_records.(idx)
    (float_of_int (Abdm.Store.size backend))

let count t file =
  Array.fold_left (fun acc b -> acc + Abdm.Store.count b file) 0 t.backends

let size t = Array.fold_left (fun acc b -> acc + Abdm.Store.size b) 0 t.backends

let file_names t =
  Array.fold_left (fun acc b -> Abdm.Store.file_names b @ acc) [] t.backends
  |> List.sort_uniq String.compare

let backend_sizes t = Array.to_list (Array.map Abdm.Store.size t.backends)

let backend_loads t =
  Array.to_list
    (Array.mapi
       (fun i backend ->
         ( Obs.Metrics.counter_value t.obs_scanned.(i),
           Obs.Metrics.counter_value t.obs_written.(i),
           Abdm.Store.size backend ))
       t.backends)

let run t (request : Abdl.Ast.request) =
  match request with
  | Abdl.Ast.Insert record -> Abdl.Exec.Inserted (insert t record)
  | Abdl.Ast.Delete query -> Abdl.Exec.Deleted (delete t query)
  | Abdl.Ast.Update (query, modifiers) ->
    Abdl.Exec.Updated (update t query modifiers)
  | Abdl.Ast.Retrieve retrieve ->
    (* Backends select in parallel; the controller shapes (projection,
       sorting, grouping, aggregation) over the merged matches. *)
    let matches = select t retrieve.query in
    Abdl.Exec.Rows (Abdl.Exec.shape_rows retrieve matches)
  | Abdl.Ast.Retrieve_common rc ->
    (* both sides are parallel backend selections; the controller joins *)
    let left = select t rc.rc_left in
    let right = select t rc.rc_right in
    Abdl.Exec.Rows (Abdl.Exec.join_rows rc ~left ~right)

let run_transaction t requests = List.map (run t) requests

(* Transaction control mutates every backend's journal, so — like any
   other mutation — it must run on each store's owner domain when a pool
   is active (the store-ownership contract of abdm/store.mli). *)
let begin_transaction t =
  Array.iteri
    (fun i backend -> on_owner t i (fun () -> Abdm.Store.begin_transaction backend))
    t.backends

let commit t =
  Array.iteri
    (fun i backend -> on_owner t i (fun () -> Abdm.Store.commit backend))
    t.backends

let rollback t =
  Array.iteri
    (fun i backend -> on_owner t i (fun () -> Abdm.Store.rollback backend))
    t.backends

let last_response_time t = Stats.last_time t.stats

let total_time t = Stats.total_time t.stats

let request_count t = Stats.requests t.stats

let mean_response_time t = Stats.mean_time t.stats

let last_measured_time t = Stats.last_measured_time t.stats

let total_measured_time t = Stats.total_measured_time t.stats

let mean_measured_time t = Stats.mean_measured_time t.stats

let reset_stats t = Stats.reset t.stats
