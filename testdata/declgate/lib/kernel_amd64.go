package lib

func Kernel() int { return 1 }
