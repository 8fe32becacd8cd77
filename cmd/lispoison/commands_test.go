package main

// cmdGen and its siblings run one subcommand in-process through the command
// table, as main does minus the exit; main_test.go drives them.

func cmdGen(args []string) error    { return run(append([]string{"gen"}, args...)) }
func cmdAttack(args []string) error { return run(append([]string{"attack"}, args...)) }
func cmdOnline(args []string) error { return run(append([]string{"online"}, args...)) }
func cmdServe(args []string) error  { return run(append([]string{"serve"}, args...)) }
func cmdChurn(args []string) error  { return run(append([]string{"churn"}, args...)) }
func cmdEval(args []string) error   { return run(append([]string{"eval"}, args...)) }
func cmdDefend(args []string) error { return run(append([]string{"defend"}, args...)) }
