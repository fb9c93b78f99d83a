module vlasov6d/benchmark

go 1.24

require vlasov6d v0.0.0

replace vlasov6d => ../
