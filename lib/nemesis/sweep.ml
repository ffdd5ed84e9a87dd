type 'o report = {
  runs : int;
  outcomes : 'o list;
  cpu_seconds : float;
  wall_seconds : float;
  runs_per_sec : float;
}

let rate runs wall = if wall <= 0. then 0. else float_of_int runs /. wall

let run ?(jobs = 1) ?on_outcome ~cells ~first_seed ~plans one =
  let t0_cpu = Sys.time () in
  let t0 = Unix.gettimeofday () in
  let work =
    Array.of_list
      (List.concat_map
         (fun c -> List.init plans (fun k -> (c, first_seed + k)))
         cells)
  in
  let progress = Mutex.create () in
  let one (c, seed) =
    let o = one c ~seed in
    (* Completion order under jobs > 1 is nondeterministic; the mutex
       only keeps concurrent observers from interleaving output. *)
    Option.iter (fun f -> Mutex.protect progress (fun () -> f o)) on_outcome;
    o
  in
  let outcomes =
    Array.to_list
      (Exec.Pool.map ~jobs ~seed_of:(fun i -> snd work.(i)) one work)
  in
  let runs = List.length outcomes in
  let wall = Unix.gettimeofday () -. t0 in
  {
    runs;
    outcomes;
    cpu_seconds = Sys.time () -. t0_cpu;
    wall_seconds = wall;
    runs_per_sec = rate runs wall;
  }

let merge a b =
  let runs = a.runs + b.runs in
  let wall = Float.max a.wall_seconds b.wall_seconds in
  {
    runs;
    outcomes = a.outcomes @ b.outcomes;
    cpu_seconds = a.cpu_seconds +. b.cpu_seconds;
    wall_seconds = wall;
    runs_per_sec = rate runs wall;
  }

let failures ok r = List.filter (fun o -> not (ok o)) r.outcomes

let plans plans_of r = List.concat_map plans_of r.outcomes

let faults_injected plans_of r =
  List.fold_left (fun a p -> a + Plan.length p) 0 (plans plans_of r)

let coverage plans_of r =
  List.fold_left
    (fun acc p -> List.map2 (fun (k, x) (_, y) -> (k, x + y)) acc (Plan.count_kinds p))
    (List.map (fun k -> (k, 0)) Plan.kinds)
    (plans plans_of r)

let pp_faults name plans_of ppf r =
  Format.fprintf ppf "%s campaign: %d runs, %d faults injected@." name r.runs
    (faults_injected plans_of r);
  Format.fprintf ppf "  coverage: %s@."
    (String.concat ", "
       (List.map
          (fun (k, c) -> Printf.sprintf "%s=%d" k c)
          (coverage plans_of r)))

let pp_timing ppf r =
  Format.fprintf ppf "  %.1f runs/sec (%.2fs wall, %.2fs cpu)@." r.runs_per_sec
    r.wall_seconds r.cpu_seconds
