(* Seeded statement streams for the three workloads.

   Everything here is a pure function of the seed: the data loaded during
   set-up, the timed statement stream of every connection and what each
   statement's reply must contain. The generator is SplitMix64 on
   [Int64], written out here rather than taken from [Random], so that a
   seed names the same byte stream on every OCaml version. *)

(* --- SplitMix64 --------------------------------------------------------- *)

type rng = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

let next r =
  r.s <- Int64.add r.s golden;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* [rng seed ~stream]: an independent generator per (seed, stream).
   Connections, set-up rows and warm-up each draw from their own, so one
   of them drawing more never shifts another. *)
let rng seed ~stream =
  let a = next { s = Int64.of_int seed } in
  { s = Int64.logxor a (Int64.mul (Int64.of_int (stream + 1)) golden) }

let int r bound = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int bound))

let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

let word r n = String.init n (fun _ -> alphabet.[int r (String.length alphabet)])

(* --- operations ----------------------------------------------------------- *)

type kind = Read | Write

type op = {
  lang : string;  (* a [Mlds.System.language_of_string] spelling *)
  text : string;
  kind : kind;
  expect : string;  (* what a correct reply holds, once per statement *)
  stmts : int;  (* statements in [text] *)
  file : string option;  (* the file an ABDL insert adds its rows to *)
  payload : int;  (* attribute-value bytes of the rows it inserts *)
}

let read lang text expect =
  { lang; text; kind = Read; expect; stmts = 1; file = None; payload = 0 }

(* One ABDL INSERT of [attrs] into [file]; [payload] counts the bytes of
   the attribute values as written. *)
let insert file attrs =
  let value = function `I i -> string_of_int i | `S s -> "'" ^ s ^ "'" in
  let bytes = function `I i -> String.length (string_of_int i) | `S s -> String.length s in
  {
    lang = "abdl";
    text =
      Printf.sprintf "INSERT (<FILE, %s>%s)" file
        (String.concat "" (List.map (fun (a, v) -> Printf.sprintf ", <%s, %s>" a (value v)) attrs));
    kind = Write;
    expect = "INSERTED";
    stmts = 1;
    file = Some file;
    payload = List.fold_left (fun n (_, v) -> n + bytes v) 0 attrs;
  }

(* Several statements of one language as one submission: one request,
   one reply, one covering fsync. *)
let batch = function
  | [] -> invalid_arg "Gen.batch"
  | first :: _ as ops ->
    {
      first with
      text = String.concat "\n" (List.map (fun o -> o.text) ops);
      stmts = List.fold_left (fun n o -> n + o.stmts) 0 ops;
      payload = List.fold_left (fun n o -> n + o.payload) 0 ops;
    }

(* The end-of-run check of a file: the query and the reply line it must
   give after [n] acknowledged rows. *)
let count_check ~file n =
  let attr = match file with "item" -> "k" | "enrol" -> "sid" | _ -> "seq" in
  ( Printf.sprintf "RETRIEVE ((FILE = %s)) (COUNT(%s))" file attr,
    Printf.sprintf "COUNT(%s)=%d" attr n )

(* --- the item file: point-read's data, ingest's base ------------------- *)

let item_count = 20_000

let hot_keys = 256

(* The value stored under key [k]: seeded in content and length (10 to
   20 bytes), so a reply carrying another key's value, or another seed's,
   fails the check, and each seed stores a different number of bytes. *)
let item_value ~seed k =
  let r = rng seed ~stream:(1_000_000 + k) in
  "v" ^ word r (9 + int r 11)

let item_insert ~seed k = insert "item" [ ("k", `I k); ("v", `S (item_value ~seed k)) ]

(* The hot set: [hot_keys] distinct keys drawn from the whole file. *)
let hot_set ~seed =
  let r = rng seed ~stream:1 in
  let seen = Hashtbl.create hot_keys in
  let rec go acc n =
    if n = hot_keys then Array.of_list (List.rev acc)
    else
      let k = int r item_count in
      if Hashtbl.mem seen k then go acc n
      else (
        Hashtbl.add seen k ();
        go (k :: acc) (n + 1))
  in
  go [] 0

let point_read ~seed k =
  read "abdl"
    (Printf.sprintf "RETRIEVE ((FILE = item) AND (k = %d)) (v)" k)
    ("v=" ^ item_value ~seed k)

(* --- ingest ----------------------------------------------------------------- *)

let ingest_payload_bytes = 200

(* Inserts per ingest request. The covering fsync is per request batch,
   and on a shared disk its latency swings tenfold; a large batch keeps
   the device's share of a request small, so the run measures the insert
   and WAL CPU path and counts fsyncs rather than timing a disk. *)
let ingest_batch = 100

(* Every text is new (the sequence number), so the statement cache
   always misses. *)
let ingest_insert r ~conn ~n =
  insert (Printf.sprintf "ing%d" conn) [ ("seq", `I n); ("payload", `S (word r ingest_payload_bytes)) ]

let ingest_request r ~conn ~first =
  batch (List.init ingest_batch (fun i -> ingest_insert r ~conn ~n:(first + i)))

(* --- multilingual --------------------------------------------------------- *)

let course_count = 500

let semesters = [| "Fall"; "Spring"; "Winter" |]

(* Course [i]'s title: unique by its index, seeded in its tail. *)
let course_title ~seed i = Printf.sprintf "c%03d-%s" i (word (rng seed ~stream:(2_000_000 + i)) 6)

let course_create ~seed i =
  let r = rng seed ~stream:(3_000_000 + i) in
  let title = course_title ~seed i in
  let semester = semesters.(int r 3) in
  {
    lang = "daplex";
    text =
      Printf.sprintf "CREATE course (title = '%s', semester = '%s', credits = %d)" title semester
        (1 + int r 5);
    kind = Write;
    expect = "created";
    stmts = 1;
    file = None;
    payload = String.length title + String.length semester + 1;
  }

(* Selective lookup of one course by title, in each language. *)
let lookup lang title =
  match lang with
  | "abdl" ->
    read lang
      (Printf.sprintf "RETRIEVE ((FILE = course) AND (title = '%s')) (title, credits)" title)
      ("title=" ^ title)
  | "daplex" ->
    read lang
      (Printf.sprintf
         "FOR EACH c IN course SUCH THAT title(c) = '%s' PRINT title(c), credits(c) END" title)
      ("title(c) = " ^ title)
  | "codasyl" ->
    read lang
      (Printf.sprintf
         "MOVE '%s' TO title IN course\nFIND ANY course USING title IN course\nGET course" title)
      ("title=" ^ title)
  | "sql" ->
    (* a result row: the reply also echoes the statement, title and all *)
    read lang
      (Printf.sprintf "SELECT title, credits FROM course WHERE title = '%s'" title)
      ("\n  " ^ title ^ " ")
  | _ -> invalid_arg ("Gen.lookup: " ^ lang)

(* A write in each language that can write a functional database (SQL
   over one is a read-only view). [n] makes each ABDL insert text new. *)
let update lang ~n ~title ~credits =
  let write text expect = { lang; text; kind = Write; expect; stmts = 1; file = None; payload = 0 } in
  match lang with
  | "abdl" -> insert "enrol" [ ("sid", `I n); ("title", `S title) ]
  | "daplex" ->
    write
      (Printf.sprintf "FOR EACH c IN course SUCH THAT title(c) = '%s' LET credits(c) = %d END"
         title credits)
      ""
  | "codasyl" ->
    write
      (Printf.sprintf
         "MOVE '%s' TO title IN course\n\
          FIND ANY course USING title IN course\n\
          MOVE %d TO credits IN course\n\
          MODIFY credits IN course"
         title credits)
      "modified 1 item"
  | _ -> invalid_arg ("Gen.update: " ^ lang)

let languages = [| "abdl"; "daplex"; "codasyl"; "sql" |]

(* Requests per language block; a block switch is a logout and login. *)
let block_len = 16

(* Writes per mille among the write-capable languages: about a tenth of
   all requests. *)
let write_per_mille = 133

(* --- workloads ------------------------------------------------------------ *)

type workload = Point_read | Ingest | Multilingual

let workload_of_string = function
  | "point-read" -> Some Point_read
  | "ingest" -> Some Ingest
  | "multilingual" -> Some Multilingual
  | _ -> None

let workload_name = function
  | Point_read -> "point-read"
  | Ingest -> "ingest"
  | Multilingual -> "multilingual"

let connections = function Point_read | Multilingual -> 1 | Ingest -> 2

(* The language the set-up loads its data in. *)
let load_language = function Multilingual -> "daplex" | Point_read | Ingest -> "abdl"

(* The course titles a workload's database holds. *)
let course_titles w ~seed =
  match w with
  | Multilingual -> List.init course_count (course_title ~seed)
  | Point_read | Ingest ->
    List.filter_map
      (fun (r : Daplex.University.row) ->
        match List.assoc_opt "title" r.row_values with
        | Some (Daplex.University.Scalar (Abdm.Value.Str t)) when r.row_type = "course" -> Some t
        | _ -> None)
      Daplex.University.rows

(* The timed statement stream of connection [conn]: call it for the next
   request. Deterministic in (workload, seed, conn); [base] picks another
   family of generators over the same data (the warm-up's). *)
let stream ?(base = 100) w ~seed ~conn =
  let r = rng seed ~stream:(base + conn) in
  let n = ref 0 in
  match w with
  | Point_read ->
    let hot = hot_set ~seed in
    fun () -> point_read ~seed hot.(int r hot_keys)
  | Ingest ->
    fun () ->
      let op = ingest_request r ~conn ~first:!n in
      n := !n + ingest_batch;
      op
  | Multilingual ->
    fun () ->
      let lang = languages.(!n / block_len mod Array.length languages) in
      let title = course_title ~seed (int r course_count) in
      let write = lang <> "sql" && int r 1000 < write_per_mille in
      incr n;
      if write then update lang ~n:!n ~title ~credits:(1 + int r 5) else lookup lang title

(* Set-up: the statements that load the workload's data, in submissions
   of [chunk] statements (one request and one covering fsync each). *)
let chunk = 1000

let rec chunks = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take chunk [] l in
    batch c :: chunks rest

let setup_ops w ~seed =
  chunks
    (match w with
    | Point_read | Ingest -> List.init item_count (item_insert ~seed)
    | Multilingual -> List.init course_count (course_create ~seed))

(* Ingest's warm-up rows are numbered from here, clear of the timed
   stream's 0, 1, 2, ... *)
let warmup_seq = 1_000_000_000

(* Warm-up before timing: point-read probes every hot key four times, so
   its auto-built index exists and every text is in the statement cache;
   ingest sends one request per connection; multilingual runs four
   rotations of a stream seeded apart from the timed one, which also
   keeps its set-up well above the noise of spawning a process. *)
let warmup_ops w ~seed ~conn =
  match w with
  | Point_read ->
    let hot = Array.to_list (hot_set ~seed) in
    List.concat (List.init 4 (fun _ -> List.map (point_read ~seed) hot))
  | Ingest -> [ ingest_request (rng seed ~stream:(200 + conn)) ~conn ~first:warmup_seq ]
  | Multilingual ->
    let next = stream ~base:200 w ~seed ~conn in
    List.init (4 * block_len * Array.length languages) (fun _ -> next ())

(* --- the DL/I probe's database ---------------------------------------------- *)

let clinic_ddl =
  {|DATABASE clinic
SEGMENT patient (pname CHAR(20), pid INT)
SEGMENT visit PARENT patient (vdate CHAR(10), cost INT)|}

let clinic_patients = 256

let clinic_load ~seed =
  let r = rng seed ~stream:400 in
  {
    lang = "dli";
    text =
      String.concat "\n"
        (List.init clinic_patients (fun i ->
             Printf.sprintf
               "ISRT patient (pname = 'p%d', pid = %d)\n\
                ISRT patient(pid = %d) visit (vdate = 'd%d', cost = %d)"
               i i i i (10 + int r 990)));
    kind = Write;
    expect = "";
    stmts = 2 * clinic_patients;
    file = None;
    payload = 0;
  }

let clinic_lookup pid =
  read "dli" (Printf.sprintf "GU patient(pid = %d) visit" pid) (Printf.sprintf "vdate=d%d" pid)
