type mode = Single | Sim

type mutex = No_mutex | Sim_mutex of Ff_mcsim.Mcsim.mutex

let make_mutex = function
  | Single -> No_mutex
  | Sim -> Sim_mutex (Ff_mcsim.Mcsim.create_mutex ())

let lock = function No_mutex -> () | Sim_mutex m -> Ff_mcsim.Mcsim.lock m
let unlock = function No_mutex -> () | Sim_mutex m -> Ff_mcsim.Mcsim.unlock m

type rwlock = No_rwlock | Sim_rwlock of Ff_mcsim.Mcsim.rwlock

let make_rwlock = function
  | Single -> No_rwlock
  | Sim -> Sim_rwlock (Ff_mcsim.Mcsim.create_rwlock ())

let rd_lock = function No_rwlock -> () | Sim_rwlock l -> Ff_mcsim.Mcsim.rd_lock l
let rd_unlock = function No_rwlock -> () | Sim_rwlock l -> Ff_mcsim.Mcsim.rd_unlock l
let wr_lock = function No_rwlock -> () | Sim_rwlock l -> Ff_mcsim.Mcsim.wr_lock l
let wr_unlock = function No_rwlock -> () | Sim_rwlock l -> Ff_mcsim.Mcsim.wr_unlock l

module Table = struct
  type nonrec t = {
    mode : mode;
    mutexes : (int, mutex) Hashtbl.t;
    rwlocks : (int, rwlock) Hashtbl.t;
  }

  let create mode =
    { mode; mutexes = Hashtbl.create 1024; rwlocks = Hashtbl.create 1024 }

  let mode t = t.mode

  let mutex_of t addr =
    match Hashtbl.find_opt t.mutexes addr with
    | Some m -> m
    | None ->
        let m = make_mutex t.mode in
        Hashtbl.add t.mutexes addr m;
        m

  let rwlock_of t addr =
    match Hashtbl.find_opt t.rwlocks addr with
    | Some l -> l
    | None ->
        let l = make_rwlock t.mode in
        Hashtbl.add t.rwlocks addr l;
        l
end
