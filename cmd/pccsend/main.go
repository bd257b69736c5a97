// Command pccsend sends one file over the PCC UDP transport.
//
// Usage:
//
//	pccsend -to host:9000 -in file.bin [-rtt 50ms] [-utility safe|latency|resilient|vivace]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"pcc/internal/core"
	"pcc/internal/transport"
)

func main() {
	to := flag.String("to", "", "receiver UDP address (host:port)")
	in := flag.String("in", "", "input file ('-' or empty = stdin)")
	rtt := flag.Duration("rtt", 50*time.Millisecond, "RTT hint for the starting rate")
	utility := flag.String("utility", "safe", "utility function: safe, latency, resilient, vivace")
	flag.Parse()

	if *to == "" {
		log.Fatal("pccsend: -to is required")
	}
	peer, err := net.ResolveUDPAddr("udp", *to)
	if err != nil {
		log.Fatalf("pccsend: %v", err)
	}
	conn, err := net.ListenUDP("udp", nil)
	if err != nil {
		log.Fatalf("pccsend: %v", err)
	}
	defer conn.Close()

	r := os.Stdin
	if *in != "" && *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatalf("pccsend: %v", err)
		}
		defer f.Close()
		r = f
	}

	cfg, err := core.UtilityConfig(*utility, rtt.Seconds())
	if err != nil {
		log.Fatalf("pccsend: %v", err)
	}

	s, err := transport.NewSender(conn, peer, cfg, r)
	if err != nil {
		log.Fatalf("pccsend: %v", err)
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- s.Run() }()

	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			if err != nil {
				log.Fatalf("pccsend: %v", err)
			}
			sent, rtx := s.Stats()
			fmt.Fprintf(os.Stderr, "pccsend: done in %.2fs (%d packets, %d retransmitted)\n",
				time.Since(start).Seconds(), sent, rtx)
			return
		case <-tick.C:
			fmt.Fprintf(os.Stderr, "pccsend: rate %.2f Mbps\n", s.Rate()*8/1e6)
		}
	}
}
